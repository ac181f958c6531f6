"""Unit tests for the vector solver and the rotor synchronization model."""

import json
import math
import os

import numpy as np
import pytest

from betanewton.core import BetaSchedule, IterationConfig, Status, ScalarProblem, iterate
from betanewton.multivariate import (
    KuramotoSystem,
    MalformedSystem,
    VectorProblem,
    build_kuramoto_problem,
    kuramoto_from_json,
    kuramoto_to_json,
    omega_from_phases,
    random_kuramoto,
    rotor_velocities,
    solve_sync,
    sync_solution_to_json,
    vector_extended_step,
)
from conftest import fresh_stdout


def _symmetric_pair(g=0.8, s=0.3, kappa=1.3):
    gamma = np.array([[0.0, g], [g, 0.0]])
    psi = np.array([[0.0, s], [s, 0.0]])
    return KuramotoSystem(2, gamma, psi, kappa)


# ---------------------------------------------------------------------------
# two rotors: closed form

def test_two_rotor_in_phase_lock():
    sys = _symmetric_pair()
    sol = solve_sync(sys, np.array([0.1]), BetaSchedule.annealing())
    assert sol.status is Status.CONVERGED
    assert sol.phases[0] == 0.0
    phi1 = sol.phases[1] % (2 * math.pi)
    assert min(phi1, 2 * math.pi - phi1) < 1e-9
    assert abs(sol.omega - 1.3 * 0.8 * math.sin(0.3)) < 1e-12
    assert sol.residual_norm < 1e-12
    v = rotor_velocities(sys, sol.phases)
    assert np.abs(v - sol.omega).max() < 1e-12


def test_two_rotor_antiphase_lock():
    sys = _symmetric_pair()
    sol = solve_sync(sys, np.array([3.0]), BetaSchedule.annealing())
    assert sol.status is Status.CONVERGED
    phi1 = sol.phases[1] % (2 * math.pi)
    assert abs(phi1 - math.pi) < 1e-9
    assert abs(sol.omega + 1.3 * 0.8 * math.sin(0.3)) < 1e-12


# ---------------------------------------------------------------------------
# residual / jacobian

def test_jacobian_matches_finite_differences():
    sys = random_kuramoto(6, seed=42)
    vp = build_kuramoto_problem(sys)
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(20):
        phi = rng.uniform(-math.pi, math.pi, 5)
        jac = vp.jacobian(phi)
        fd = np.empty_like(jac)
        for k in range(5):
            e = np.zeros(5)
            e[k] = h
            fd[:, k] = (vp.residual(phi + e) - vp.residual(phi - e)) / (2 * h)
        assert np.abs(jac - fd).max() <= 1e-4 * max(1.0, np.abs(jac).max())


def test_reduced_residual_ignores_kappa():
    base = random_kuramoto(4, seed=5)
    scaled = KuramotoSystem(4, base.gamma, base.psi, kappa=37.0)
    phi = np.array([0.3, -1.2, 2.2])
    a = build_kuramoto_problem(base)
    b = build_kuramoto_problem(scaled)
    assert np.array_equal(a.residual(phi), b.residual(phi))
    assert np.array_equal(a.jacobian(phi), b.jacobian(phi))


# ---------------------------------------------------------------------------
# the vector step

def _counting(vp):
    calls = {"residual": 0, "jacobian": 0}

    def residual(phi):
        calls["residual"] += 1
        return vp.residual(phi)

    def jacobian(phi):
        calls["jacobian"] += 1
        return vp.jacobian(phi)

    return VectorProblem(residual, jacobian), calls


def test_vector_step_factors_once():
    vp, calls = _counting(build_kuramoto_problem(random_kuramoto(5, seed=1)))
    vector_extended_step(vp, np.full(4, 0.2), BetaSchedule.fixed(1.0))
    assert calls == {"residual": 2, "jacobian": 1}


def test_vector_step_against_dense_solve():
    vp = build_kuramoto_problem(random_kuramoto(5, seed=3))
    phi = np.array([0.4, -0.2, 0.9, 0.1])
    J = vp.jacobian(phi)
    d1 = np.linalg.solve(J, vp.residual(phi))
    d2 = np.linalg.solve(J, vp.residual(phi - d1))
    a = np.linalg.norm(J) ** 2
    b = np.linalg.norm(vp.jacobian(phi - d1)) ** 2
    cases = [(BetaSchedule.fixed(beta), beta) for beta in (0.0, 0.7, 1.0)]
    cases.append((BetaSchedule.annealing(), 2 * a / (a + b)))
    for sched, beta in cases:
        got = vector_extended_step(vp, phi, sched)
        want = phi - d1 - beta * d2
        assert np.abs(got - want).max() < 1e-13


def test_annealing_vector_step_is_one_solver_step():
    sys = random_kuramoto(5, seed=3)
    phi = np.array([0.4, -0.2, 0.9, 0.1])
    sched = BetaSchedule.annealing()
    got = vector_extended_step(build_kuramoto_problem(sys), phi, sched)
    sol = solve_sync(sys, phi, sched, IterationConfig(epsilon=1e-12, max_iter=1))
    assert sol.iterations == 1
    assert np.array_equal(sol.phases[1:], got)


def test_diagonal_system_decouples_to_scalar_steps():
    f = ScalarProblem("sq", lambda z: z * z - 2.0, lambda z: 2.0 * z)
    g = ScalarProblem("sin", np.sin, np.cos)

    vp = VectorProblem(
        lambda x: np.array([(x[0] * x[0] - 2.0).real, np.sin(x[1]).real]),
        lambda x: np.diag([2.0 * x[0], np.cos(x[1])]),
    )
    x = np.array([1.7, 0.4])
    sched = BetaSchedule.fixed(0.6)
    got = vector_extended_step(vp, x, sched)
    want0 = iterate(f, x[0], sched, IterationConfig(max_iter=1)).final
    want1 = iterate(g, x[1], sched, IterationConfig(max_iter=1)).final
    assert abs(got[0] - want0.real) < 1e-14
    assert abs(got[1] - want1.real) < 1e-14


def test_singular_jacobian_is_a_numerical_failure():
    n = 4
    sys = KuramotoSystem(n, np.zeros((n, n)), np.zeros((n, n)))
    sol = solve_sync(sys)
    assert sol.status is Status.NUMERICAL_FAILURE
    assert sol.iterations == 0
    assert np.array_equal(sol.phases, np.zeros(n))


# ---------------------------------------------------------------------------
# solve_sync

def test_solver_locks_random_five_rotor_system():
    sys = random_kuramoto(5, seed=2024)
    sol = solve_sync(sys, sched=BetaSchedule.annealing())
    assert sol.status is Status.CONVERGED
    assert sol.phases[0] == 0.0
    assert sol.residual_norm < 1e-12
    v = rotor_velocities(sys, sol.phases)
    assert v.max() - v.min() < 1e-10
    assert sol.iterations <= 20


def test_phases_do_not_depend_on_kappa():
    base = random_kuramoto(4, seed=8)
    sols = []
    for kappa in (0.1, 1.0, 10.0):
        sys = KuramotoSystem(4, base.gamma, base.psi, kappa)
        sols.append((kappa, solve_sync(sys, sched=BetaSchedule.annealing())))
    _, ref = sols[0]
    assert ref.status is Status.CONVERGED
    for kappa, sol in sols[1:]:
        assert np.array_equal(sol.phases, ref.phases)
        assert abs(sol.omega / kappa - sols[0][1].omega / 0.1) < 1e-14


def test_phases_do_not_depend_on_lapack_thread_count():
    # N = 200 is large enough for OpenBLAS to split the LU between threads
    code = ("import hashlib\n"
            "from betanewton import BetaSchedule, random_kuramoto, solve_sync\n"
            "sol = solve_sync(random_kuramoto(200, 5), None, BetaSchedule.annealing())\n"
            "print(sol.status.value, hashlib.sha256(sol.phases.tobytes()).hexdigest())\n")
    before = dict(os.environ)
    one, two = (fresh_stdout(code, OPENBLAS_NUM_THREADS=t) for t in ("1", "2"))
    assert one == two
    assert one[0].startswith("converged ")
    assert dict(os.environ) == before


def test_max_iterations_reported():
    sys = random_kuramoto(5, seed=2024)
    sol = solve_sync(sys, np.full(4, 2.0), cfg=IterationConfig(epsilon=1e-12, max_iter=1))
    assert sol.status is Status.MAX_ITERATIONS
    assert sol.iterations == 1


def test_phi0_length_checked():
    sys = random_kuramoto(4, seed=0)
    with pytest.raises(ValueError):
        solve_sync(sys, np.zeros(4))


def test_gauge_enforced_in_omega():
    sys = _symmetric_pair()
    with pytest.raises(ValueError):
        omega_from_phases(sys, np.array([0.1, 0.3]))


# ---------------------------------------------------------------------------
# system validation and serialization

def test_system_validation():
    ok_g = np.zeros((3, 3))
    with pytest.raises(ValueError):
        KuramotoSystem(1, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        KuramotoSystem(3, np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        KuramotoSystem(3, np.eye(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        KuramotoSystem(3, ok_g, np.zeros((3, 3)), kappa=0.0)
    bad = np.zeros((3, 3))
    bad[0, 1] = np.nan
    with pytest.raises(ValueError):
        KuramotoSystem(3, bad, np.zeros((3, 3)))


def test_json_round_trip():
    sys = random_kuramoto(3, seed=9, kappa=2.5)
    obj = kuramoto_to_json(sys)
    back = kuramoto_from_json(json.dumps(obj))
    assert back.n_rotors == 3
    assert back.kappa == 2.5
    assert np.array_equal(back.gamma, sys.gamma)
    assert np.array_equal(back.psi, sys.psi)


def test_malformed_system_inputs():
    good = kuramoto_to_json(random_kuramoto(3, seed=9))
    for bad in (
        "{not json",
        "[1, 2, 3]",
        json.dumps({k: v for k, v in good.items() if k != "gamma"}),
        json.dumps({**good, "psi": [0.0] * 5}),
        json.dumps({**good, "n": 1}),
    ):
        with pytest.raises(MalformedSystem):
            kuramoto_from_json(bad)


def test_solution_serialization():
    sol = solve_sync(_symmetric_pair(), np.array([0.1]))
    d = sync_solution_to_json(sol)
    assert d["status"] == "converged"
    assert d["phases"][0] == 0.0
    assert d["iterations"] == sol.iterations
    assert json.loads(json.dumps(d)) == d
