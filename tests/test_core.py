"""Unit tests for the scalar update, iteration driver, and function registry."""

import math
from fractions import Fraction

import numpy as np
import pytest

from betanewton.core import (
    ANNEALING,
    FIXED,
    BetaSchedule,
    DegenerateScheduleInput,
    IterationConfig,
    ScalarProblem,
    Status,
    UnknownProblem,
    annealing_beta,
    get_problem,
    iterate,
    list_problems,
    make_affine_problem,
)

SQUARE = ScalarProblem(
    "square", lambda z: z * z - 1, lambda z: 2 * z, lambda z: 2 + 0 * z,
    (1.0 + 0.0j, -1.0 + 0.0j), "x^2 - 1")


class CountingProblem:
    """Wraps a problem and counts eval/deriv calls (each call may be batched)."""

    def __init__(self, p):
        self.calls_f = 0
        self.calls_fp = 0
        self._p = p
        self.problem = ScalarProblem(p.id, self._eval, self._deriv, p.deriv2,
                                     p.known_roots, p.display)

    def _eval(self, z):
        self.calls_f += 1
        return self._p.eval(z)

    def _deriv(self, z):
        self.calls_fp += 1
        return self._p.deriv(z)


# ---------------------------------------------------------------------------
# single update step

ONE_STEP = IterationConfig(max_iter=1, trace=True)


def test_step_beta_zero_is_newton_point():
    out = iterate(SQUARE, 2.0, BetaSchedule.fixed(0.0), ONE_STEP)
    assert out.trace == (2.0 + 0j, 1.25 + 0j)


def test_step_beta_one_exact_value():
    out = iterate(SQUARE, 2.0, BetaSchedule.fixed(1.0), ONE_STEP)
    # x_hat = 1.25, then 1.25 - (1.25^2 - 1)/4 = 1.109375 exactly in binary
    assert out.trace == (2.0 + 0j, 1.109375 + 0j)


def test_step_evaluation_counts():
    cp = CountingProblem(SQUARE)
    out = iterate(cp.problem, 2.0, BetaSchedule.fixed(1.0), ONE_STEP)
    assert (out.status, out.iterations) == (Status.MAX_ITERATIONS, 1)
    assert cp.calls_f == out.evals_f == 2
    assert cp.calls_fp == out.evals_fprime == 1


# ---------------------------------------------------------------------------
# annealing schedule

def test_annealing_beta_examples():
    assert annealing_beta(1.0, 1.0) == 1.0
    assert annealing_beta(1.0, 0.0) == 2.0
    assert annealing_beta(1.0, 3.0) == 0.2
    # |f'(x)|^2 = 1e308 is finite, and so is the weight, though 2|f'(x)|^2 is not
    assert annealing_beta(1e154, 0.0) == 2.0


def test_annealing_beta_degenerate_inputs():
    with pytest.raises(DegenerateScheduleInput):
        annealing_beta(0.0, 0.0)
    with pytest.raises(DegenerateScheduleInput):
        annealing_beta(1e200, 1e200)  # squared magnitudes overflow


def test_annealing_beta_range_and_real_contraction_bound():
    rng = np.random.default_rng(20240817)
    for _ in range(10_000):
        a = math.exp(rng.standard_normal())
        b = a * math.exp(rng.standard_normal())
        sign = -1.0 if rng.random() < 0.5 else 1.0
        beta = annealing_beta(sign * a, sign * b)
        assert 0.0 < beta <= 2.0
        # same-sign real derivatives: the per-step error multiplier is in [0, 1]
        mult = 1.0 - beta * (b / a)
        assert -1e-15 <= mult <= 1.0 + 1e-15


def test_schedule_flags():
    assert BetaSchedule.fixed(-1.0).degenerate
    assert not BetaSchedule.fixed(-1.0 + 1e-6).degenerate
    assert not BetaSchedule.annealing().degenerate
    assert BetaSchedule.fixed(0.5).mode == FIXED
    assert BetaSchedule.annealing().mode == ANNEALING
    with pytest.raises(ValueError):
        BetaSchedule("bogus", 0.0)
    with pytest.raises(ValueError):
        BetaSchedule.fixed(float("inf"))


def test_config_validation():
    with pytest.raises(ValueError):
        IterationConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        IterationConfig(max_iter=0)
    with pytest.raises(ValueError):
        IterationConfig(deriv_guard=-1.0)


# ---------------------------------------------------------------------------
# iteration driver

def test_iterate_from_root_converges_in_one_step():
    out = iterate(SQUARE, 1.0, BetaSchedule.fixed(0.5))
    assert out.status is Status.CONVERGED
    assert out.iterations == 1
    assert out.final == 1.0 + 0.0j


def test_iterate_counter_closed_forms_converged():
    for sched, fp_per_step in [(BetaSchedule.fixed(1.0), 1),
                               (BetaSchedule.annealing(), 2)]:
        out = iterate(get_problem("f2"), 2.0 + 0.0j, sched)
        assert out.status is Status.CONVERGED
        assert out.evals_f == 2 * out.iterations
        assert out.evals_fprime == fp_per_step * out.iterations


def test_iterate_counter_closed_forms_max_iterations():
    out = iterate(get_problem("f2"), 100.0 + 0.0j, BetaSchedule.fixed(0.0),
                  IterationConfig(max_iter=1))
    assert out.status is Status.MAX_ITERATIONS
    assert out.iterations == 1
    assert out.evals_f == 2
    assert out.evals_fprime == 1


def test_iterate_counter_closed_forms_failure_at_first_step():
    out = iterate(get_problem("f14"), 0.0, BetaSchedule.fixed(0.0))
    assert out.status is Status.NUMERICAL_FAILURE
    assert out.iterations == 0
    assert out.evals_f == 0
    assert out.evals_fprime == 0
    assert out.final == 0.0 + 0.0j


def test_iterate_counter_closed_forms_failure_mid_run():
    # derivative gated to zero near the root: committed steps still counted
    gated = ScalarProblem(
        "gated", lambda z: z * z - 1,
        lambda z: np.where(np.abs(z) < 1.05, 0.0, 2 * z))
    out = iterate(gated, 2.0, BetaSchedule.fixed(0.0))
    assert out.status is Status.NUMERICAL_FAILURE
    assert out.iterations == 2
    assert out.evals_f == 2 * out.iterations
    assert out.evals_fprime == out.iterations


# Failing starts and the outcomes the original numpy-scalar finiteness checks
# gave: the derivative guard (f2 and f14 at 0), exp overflow on the first step
# (f9, f13 far out, and f9's annealing derivative at x_hat), and non-finite
# steps after committed ones.
FAILURE_CASES = [
    ("f2", 0j, "0", 0, 0j, 0, 0),
    ("f2", 0j, "1", 0, 0j, 0, 0),
    ("f2", 0j, "anneal", 0, 0j, 0, 0),
    ("f14", 0j, "0", 0, 0j, 0, 0),
    ("f14", 0j, "1", 0, 0j, 0, 0),
    ("f14", 0j, "anneal", 0, 0j, 0, 0),
    ("f9", 710 + 0j, "0", 0, 710 + 0j, 0, 0),
    ("f9", 710 + 0j, "1", 0, 710 + 0j, 0, 0),
    ("f9", 710 + 0j, "anneal", 0, 710 + 0j, 0, 0),
    ("f13", 30 + 0j, "0", 0, 30 + 0j, 0, 0),
    ("f13", 30 + 0j, "1", 0, 30 + 0j, 0, 0),
    ("f13", 30 + 0j, "anneal", 0, 30 + 0j, 0, 0),
    ("f9", 705 + 0j, "anneal", 0, 705 + 0j, 0, 0),
    ("f9", 1.2 - 1.8j, "1", 1, 652643.6310371746 + 2314864.329260031j, 2, 1),
    ("f13", -1.2 - 2j, "0", 2, -1.0303115291580989 - 0.013918108365576831j, 4, 2),
    ("f13", -4 - 0.4j, "1", 7, 1.5341642168726528e+22 - 1.1470212640202019e+22j, 14, 7),
    ("f13", -0.8 + 0j, "anneal", 1, 21.119254778157824 + 0j, 2, 2),
]
SCHEDULES = {"0": BetaSchedule.fixed(0.0), "1": BetaSchedule.fixed(1.0),
             "anneal": BetaSchedule.annealing()}


@pytest.mark.parametrize("fid,z0,desc,iterations,final,evals_f,evals_fp", FAILURE_CASES)
def test_iterate_failure_encoding(fid, z0, desc, iterations, final, evals_f, evals_fp):
    out = iterate(get_problem(fid), z0, SCHEDULES[desc])
    assert out.status is Status.NUMERICAL_FAILURE
    assert out.iterations == iterations
    assert out.final == final
    assert out.evals_f == evals_f
    assert out.evals_fprime == evals_fp


@pytest.mark.parametrize("z0", [1.7e308 + 0j, 1.7e308j])
def test_iterate_rejects_one_nonfinite_part(z0):
    # one Newton step doubles z0: only the part that overflows is non-finite
    const = ScalarProblem("const", lambda z: np.complex128(-z0),
                          lambda z: np.complex128(1.0))
    out = iterate(const, z0, BetaSchedule.fixed(0.0))
    assert out.status is Status.NUMERICAL_FAILURE
    assert out.iterations == 0
    assert out.final == z0


def test_iterate_trace_opt_in():
    out = iterate(SQUARE, 2.0, BetaSchedule.fixed(0.0))
    assert out.trace is None
    traced = iterate(SQUARE, 2.0, BetaSchedule.fixed(0.0),
                     IterationConfig(trace=True))
    assert traced.trace[0] == 2.0 + 0.0j
    assert len(traced.trace) == traced.iterations + 1
    assert traced.trace[-1] == traced.final


def test_iterate_beta_zero_is_bitwise_newton():
    rng = np.random.default_rng(7)
    p = get_problem("f2")
    for _ in range(17):
        z0 = np.complex128(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        out = iterate(p, z0, BetaSchedule.fixed(0.0), IterationConfig(trace=True))
        z = np.complex128(z0)
        for traced in out.trace[1:]:
            z = z - p.eval(z) / p.deriv(z)
            assert complex(z) == traced


def test_iterate_matches_exact_rational_newton():
    # Newton for x^3 - 1 from 2 in exact arithmetic: x -> (2x^3 + 1) / (3x^2)
    out = iterate(get_problem("f2"), 2.0, BetaSchedule.fixed(0.0),
                  IterationConfig(trace=True))
    assert out.status is Status.CONVERGED
    assert out.iterations <= 9
    x = Fraction(2)
    for traced in out.trace[1:6]:
        x = (2 * x ** 3 + 1) / (3 * x ** 2)
        assert abs(traced - float(x)) <= 1e-12 * max(1.0, abs(float(x)))


def test_iterate_root_fixed_point_across_betas():
    for p in list_problems():
        for r in p.known_roots:
            if abs(np.complex128(p.deriv(np.complex128(r)))) < 1e-8:
                continue  # multiple root: the update is not defined there
            for beta in (-1.0 + 1e-6, -0.5, 0.5, 1.0):
                out = iterate(p, r, BetaSchedule.fixed(beta))
                assert out.status is Status.CONVERGED, (p.id, r, beta)
                assert out.iterations == 1, (p.id, r, beta)
                assert abs(out.final - r) < 1e-12, (p.id, r, beta)


# ---------------------------------------------------------------------------
# registry

def test_registry_lists_fourteen_functions_in_order():
    ids = [p.id for p in list_problems()]
    assert ids == [f"f{k}" for k in range(1, 15)]
    assert all(p.display for p in list_problems())


def test_registry_unknown_id_raises():
    with pytest.raises(UnknownProblem):
        get_problem("f15")
    assert issubclass(UnknownProblem, KeyError)


def test_registry_known_roots_are_roots():
    for p in list_problems():
        for r in p.known_roots:
            assert abs(np.complex128(p.eval(np.complex128(r)))) < 1e-12, (p.id, r)


def _fd_lattice(n=100):
    # low-discrepancy plastic-constant lattice over [-2, 2]^2; starts at k = 1
    # so no sample lands on the origin (f14's derivative is undefined there)
    a1, a2 = 0.7548776662466927, 0.5698402909980532
    k = np.arange(1, n + 1)
    t = (0.5 + a1 * k) % 1.0
    u = (0.5 + a2 * k) % 1.0
    return (-2 + 4 * t) + 1j * (-2 + 4 * u)


def test_registry_derivatives_match_finite_differences():
    for p in list_problems():
        for z in _fd_lattice():
            z = np.complex128(z)
            h = 1e-6 * max(1.0, abs(z))
            fd = (p.eval(z + h) - p.eval(z - h)) / (2 * h)
            an = np.complex128(p.deriv(z))
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an)), (p.id, z)


def test_registry_second_derivatives_match_finite_differences():
    for p in list_problems():
        if p.deriv2 is None:
            continue
        for z in _fd_lattice():
            z = np.complex128(z)
            h = 1e-6 * max(1.0, abs(z))
            fd = (p.deriv(z + h) - p.deriv(z - h)) / (2 * h)
            an = np.complex128(p.deriv2(z))
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an)), (p.id, z)


def _bits(x) -> bytes:
    return np.asarray(x, np.complex128).tobytes()


# the separate derivative bodies that the fused f8, f9, f13 and f14 replaced
def _old_df8(z):
    return 2 * np.sin(z - 1.4) * np.cos(z - 1.4) - 2 * (z - 1.4)


def _old_df9(z):
    return 2 * z - np.exp(z) - 3


def _old_df13(z):
    u = z + 1.25
    return np.exp(u * u) * (1 + 2 * u * u) - 2 * np.sin(u) * np.cos(u) - 3 * np.sin(u)


def _old_df14(z):
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        return np.where(z == 0, 0.0, 1 + 2 * z * np.sin(2.0 / z) - 2 * np.cos(2.0 / z))


OLD_DERIVS = {"f8": _old_df8, "f9": _old_df9, "f13": _old_df13, "f14": _old_df14}


def test_fdf_is_bitwise_eval_and_deriv():
    # 5,000 cells lie below numpy's elision threshold, like the scalars
    zs = np.concatenate(([0.0], _fd_lattice(4999)))
    with np.errstate(all="ignore"):
        for p in list_problems():
            old = OLD_DERIVS.get(p.id, p.deriv)
            f, fp = p.fdf(zs)
            assert (_bits(f), _bits(fp)) == (_bits(p.eval(zs)), _bits(old(zs))), p.id
            for z in zs[:200]:
                f, fp = p.fdf(z)
                assert (_bits(f), _bits(fp)) == (_bits(p.eval(z)), _bits(old(z))), (p.id, z)
                assert _bits(p.deriv(z)) == _bits(fp), (p.id, z)


def test_f14_continuous_extension_at_origin():
    p = get_problem("f14")
    assert complex(np.complex128(p.eval(np.complex128(0.0)))) == 0.0 + 0.0j
    assert complex(np.complex128(p.deriv(np.complex128(0.0)))) == 0.0 + 0.0j


def test_affine_problem():
    p = make_affine_problem(2.0, -4.0)
    assert p.known_roots == (2.0 + 0.0j,)
    out = iterate(p, 5.0, BetaSchedule.fixed(0.7))
    assert out.status is Status.CONVERGED
    # first step lands on the root, second confirms with a sub-epsilon move
    assert out.iterations == 2
    assert abs(out.final - 2.0) < 1e-14
    with pytest.raises(ValueError):
        make_affine_problem(0.0, 1.0)
