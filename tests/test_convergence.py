"""Unit tests for order estimation and the cube-root contraction analysis."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from betanewton.basin import GridSpec
from betanewton.convergence import (
    MIN_ORDER_ITERATIONS,
    DegenerateRoot,
    analytic_error_ratio,
    cube_root_problem,
    cube_root_window,
    estimate_order,
    order_probe,
)
from betanewton.core import (
    BetaSchedule,
    IterationConfig,
    Status,
    get_problem,
    iterate,
    list_problems,
)

SCHEDULES = {
    "0": BetaSchedule.fixed(0.0),
    "1": BetaSchedule.fixed(1.0),
    "anneal": BetaSchedule.annealing(),
}
PICKS = Path(__file__).parent / "data" / "order_probe_picks.json"


def _trace_with_displacement_exponents(exponents):
    """Build a real trace whose k-th displacement is exactly 2**-exponents[k]."""
    z = [1.0]
    for a in exponents:
        z.append(z[-1] - 2.0 ** -a)
    return z


# ---------------------------------------------------------------------------
# estimate_order on synthetic traces with exactly known order

def test_synthetic_order_one():
    tr = _trace_with_displacement_exponents(range(1, 11))
    est = estimate_order(tr)
    assert est.valid
    assert len(est.q_series) == 8
    for q in est.q_series:
        assert abs(q - 1.0) < 1e-9
    assert abs(est.q_final - 1.0) < 1e-9


def test_synthetic_order_two():
    tr = _trace_with_displacement_exponents([2, 3, 5, 9, 17, 33])
    est = estimate_order(tr)
    assert [round(q, 12) for q in est.q_series] == [2.0, 2.0, 2.0, 2.0]
    assert abs(est.q_final - 2.0) < 1e-9
    # six completed steps do not meet the validity bar
    assert len(tr) - 1 < MIN_ORDER_ITERATIONS and not est.valid


def test_synthetic_order_three():
    tr = _trace_with_displacement_exponents([1, 3, 9, 27])
    est = estimate_order(tr)
    assert len(est.q_series) == 2
    for q in est.q_series:
        assert abs(q - 3.0) < 1e-9


def test_short_traces_are_invalid():
    assert estimate_order([]) .valid is False
    assert estimate_order([1.0]).q_final is None
    est = estimate_order(_trace_with_displacement_exponents([1, 2, 3]))
    assert est.q_final is not None
    assert not est.valid


def test_zero_displacement_truncates_like_convergence():
    # a repeated iterate is a sub-threshold displacement: the series stops there
    tr = [0.0, 1.0, 1.0, 1.5, 1.75, 1.875, 1.9375]
    est = estimate_order(tr)
    assert est.q_series == ()
    assert est.q_final is None
    assert not est.valid


def test_equal_displacements_contribute_no_ratio():
    tr = _trace_with_displacement_exponents([1, 2, 2, 3])
    est = estimate_order(tr)
    # the triple whose denominator log vanishes is skipped, not an error
    assert len(est.q_series) == 1
    assert est.q_series[0] == 0.0


def test_final_subthreshold_displacement_used_when_resolved():
    tr = [0.0, 1.0, 1.1, 1.101, 1.101 + 5e-15]
    est = estimate_order(tr, epsilon=1e-14)
    e = [abs(tr[k + 1] - tr[k]) for k in range(len(tr) - 1)]
    expected = math.log(e[3] / e[2]) / math.log(e[2] / e[1])
    assert len(est.q_series) == 2
    assert est.q_final == pytest.approx(expected, rel=1e-12)


def test_final_subthreshold_displacement_dropped_at_noise_floor():
    tr = [0.0, 1.0, 1.1, 1.101, 1.101 + 2e-16]
    est = estimate_order(tr, epsilon=1e-14)
    # 2e-16 is within 2 ulp of the limit point: quantization, not signal
    assert len(est.q_series) == 1


# ---------------------------------------------------------------------------
# order_probe

def test_probe_f2_newton_order_two():
    p = get_problem("f2")
    coords = np.linspace(-2, 2, 30)
    hit = order_probe(p, BetaSchedule.fixed(0.0), IterationConfig(), coords, coords)
    assert hit is not None
    est, start, out = hit
    assert est.valid
    assert out.status is Status.CONVERGED
    assert out.iterations >= MIN_ORDER_ITERATIONS
    assert abs(est.q_final - 2.0) < 0.1


def test_probe_is_deterministic():
    p = get_problem("f4")
    coords = np.linspace(-2, 2, 25)
    a = order_probe(p, BetaSchedule.fixed(1.0), IterationConfig(), coords, coords)
    b = order_probe(p, BetaSchedule.fixed(1.0), IterationConfig(), coords, coords)
    assert a[1] == b[1]
    assert a[0] == b[0]


def test_probe_annealing_prefers_real_axis():
    p = get_problem("f2")
    re = np.linspace(-2, 2, 1000)
    im = np.linspace(-2, 2, 1000)
    hit = order_probe(p, BetaSchedule.annealing(), IterationConfig(), re, im)
    assert hit is not None
    est, start, _ = hit
    assert start.imag == 0.0
    # off the real axis the adaptive weight cancels one order less
    assert est.q_final > 3.5


def test_probe_returns_none_when_nothing_qualifies():
    p = get_problem("f2")
    hit = order_probe(p, BetaSchedule.fixed(0.0), IterationConfig(max_iter=3),
                      np.linspace(-2, 2, 5), np.linspace(-2, 2, 5))
    assert hit is None


def _scalar_scan(p, sched, cfg, re_coords, im_coords):
    """The unscreened probe: traced scalar runs over every start in scan order."""
    probe_cfg = replace(cfg, trace=True)
    starts = []
    if sched.mode == "annealing":
        starts += [complex(re, 0.0) for re in re_coords]
    starts += [complex(re, im) for re in re_coords for im in im_coords]
    for z0 in starts:
        out = iterate(p, z0, sched, probe_cfg)
        if out.status is not Status.CONVERGED or out.iterations < MIN_ORDER_ITERATIONS:
            continue
        est = estimate_order(out.trace, probe_cfg.epsilon)
        if est.valid:
            return est, z0, out
    return None


@pytest.mark.parametrize("max_iter", [50, 3])
@pytest.mark.parametrize("nx,ny", [(30, 30), (31, 29)])
def test_probe_equals_unscreened_scalar_scan(nx, ny, max_iter):
    grid = GridSpec(nx=nx, ny=ny)
    cfg = IterationConfig(max_iter=max_iter)
    re, im = grid.re_coords(), grid.im_coords()
    found = 0
    for p in list_problems():
        for sched in SCHEDULES.values():
            want = _scalar_scan(p, sched, cfg, re, im)
            assert order_probe(p, sched, cfg, re, im) == want, (p.id, sched)
            found += want is not None
    # every pair qualifies somewhere on these grids unless the budget is too short
    assert found == (0 if max_iter < MIN_ORDER_ITERATIONS
                     else len(list_problems()) * len(SCHEDULES))


@pytest.mark.parametrize("size", ["200x200", "1000x1000"])
def test_probe_reproduces_recorded_picks(size):
    picks = json.loads(PICKS.read_text())[size]
    nx, ny = map(int, size.split("x"))
    grid = GridSpec(nx=nx, ny=ny)
    for p in list_problems():
        for desc, sched in SCHEDULES.items():
            hit = order_probe(p, sched, IterationConfig(),
                              grid.re_coords(), grid.im_coords())
            got = None if hit is None else {
                "start": [hit[1].real, hit[1].imag], "q_final": repr(hit[0].q_final)}
            assert got == picks[p.id][desc], (size, p.id, desc)


# ---------------------------------------------------------------------------
# cube-root contraction window

def test_window_constants():
    win = cube_root_window()
    cbrt2 = 2.0 ** (1.0 / 3.0)
    assert math.isclose(win.lower, 1.0 / (3.0 * cbrt2), rel_tol=1e-12)
    assert math.isclose(win.upper, 1.0 / cbrt2, rel_tol=1e-12)
    assert math.isclose(win.beta_min, 4.0 ** (1.0 / 3.0) / 3.0, rel_tol=1e-12)
    assert round(win.lower, 5) == 0.26457
    assert round(win.upper, 5) == 0.79370
    assert round(win.beta_min, 5) == 0.52913


def test_window_multiplier():
    win = cube_root_window()
    assert win.multiplier(0.0) == -2.0
    assert abs(win.multiplier(0.6) - 0.267857889811) < 1e-9
    assert abs(win.multiplier(win.beta_min)) < 5e-16
    assert abs(win.multiplier(1.0) - 1.779763149684820) < 1e-12
    # window edges are exactly where |multiplier| crosses 1
    assert abs(abs(win.multiplier(win.lower)) - 1.0) < 1e-12
    assert abs(abs(win.multiplier(win.upper)) - 1.0) < 1e-12


def test_update_is_exactly_linear_on_the_real_axis():
    p = cube_root_problem()
    win = cube_root_window()
    for beta in (0.0, 0.3, 0.45, win.beta_min, 0.7, 1.0):
        for x0 in (-1.7, -0.2, 0.4, 1.9):
            out = iterate(p, x0, BetaSchedule.fixed(beta),
                          IterationConfig(max_iter=1, trace=True))
            ratio = out.trace[1].real / x0
            assert abs(ratio - win.multiplier(beta)) < 1e-12, (beta, x0)
            assert out.trace[1].imag == 0.0


def test_contraction_inside_window():
    p = cube_root_problem()
    win = cube_root_window()
    cfg = IterationConfig(max_iter=200)
    for beta in (0.4, 0.52913, 0.7):
        for x0 in np.linspace(-2, 2, 50):
            if x0 == 0.0:
                continue
            out = iterate(p, x0, BetaSchedule.fixed(beta), cfg)
            assert out.status is Status.CONVERGED, (beta, x0)
            assert abs(out.final) <= 1e-10, (beta, x0)


def test_fastest_beta_reaches_zero_in_at_most_three_steps():
    p = cube_root_problem()
    win = cube_root_window()
    cfg = IterationConfig(max_iter=200)
    for x0 in np.linspace(-2, 2, 50):
        if x0 == 0.0:
            continue
        out = iterate(p, x0, BetaSchedule.fixed(win.beta_min), cfg)
        assert out.status is Status.CONVERGED
        assert out.iterations <= 3, x0
        assert abs(out.final) <= 1e-10


def test_window_sharpness():
    p = cube_root_problem()
    win = cube_root_window()
    cfg = IterationConfig(max_iter=200)
    # betas with |multiplier| >= 1 diverge; 0.3 contracts too slowly for the
    # iteration budget even though it sits inside the analytic window
    for beta in (0.0, 0.3, 0.8, 1.0):
        out = iterate(p, 1.0, BetaSchedule.fixed(beta), cfg)
        assert out.status is not Status.CONVERGED, beta
    for beta in (0.45, win.beta_min, 0.7):
        out = iterate(p, 1.0, BetaSchedule.fixed(beta), cfg)
        assert out.status is Status.CONVERGED, beta


# ---------------------------------------------------------------------------
# local error ratio near a simple root

def test_analytic_error_ratio_values():
    p = get_problem("f2")
    assert analytic_error_ratio(p, 1.0, 0.0) == 1.0 + 0.0j
    assert analytic_error_ratio(p, 1.0, 0.5) == 0.5 + 0.0j
    assert analytic_error_ratio(p, 1.0, 1.0) == 0.0 + 0.0j


def test_analytic_error_ratio_degenerate_root():
    p = get_problem("f5")
    with pytest.raises(DegenerateRoot):
        analytic_error_ratio(p, -1.5, 0.0)


def test_analytic_error_ratio_needs_second_derivative():
    with pytest.raises(ValueError):
        analytic_error_ratio(get_problem("f14"), 0.0, 0.0)
