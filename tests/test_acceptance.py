"""Acceptance gate: one test per shipping criterion, full-scale settings.

Each test records a single PASS/FAIL line with the measured numbers; the
lines are replayed after the run by the terminal-summary hook in conftest,
surviving output capture.  Grids, tolerances, and budgets are pinned here on
purpose; loosening them is a product decision, not a test fix.
"""

import math

import numpy as np
import pytest

from conftest import acceptance_lines, affine_problem

from betanewton.basin import GridSpec, basin_entropy, sweep
from betanewton.convergence import cube_root_problem, cube_root_window, estimate_order, order_probe
from betanewton.core import (
    BetaSchedule,
    IterationConfig,
    Status,
    _anneal_weight,
    get_problem,
    iterate,
    list_problems,
)
from betanewton.multivariate import (
    KuramotoSystem,
    random_kuramoto,
    rotor_velocities,
    solve_sync,
)
from betanewton.report import TABLE2_MODES, relative_times

GRID = GridSpec()  # 1000x1000 over [-2,2]^2
CFG = IterationConfig()
TIMING_REPS = 5


def _report(tag, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} [{tag}] {detail}"
    acceptance_lines.append(line)
    print(line)
    assert ok, f"[{tag}] {detail}"


@pytest.fixture(scope="module")
def f2_sweeps():
    """One f2 sweep per table2 mode; sweep outputs depend only on their inputs."""
    p = get_problem("f2")
    return {desc: sweep(p, GRID, sched, CFG) for desc, sched in TABLE2_MODES}


@pytest.fixture(scope="module")
def f4_sweeps():
    p = get_problem("f4")
    return {
        "0": sweep(p, GRID, BetaSchedule.fixed(0.0), CFG),
        "1": sweep(p, GRID, BetaSchedule.fixed(1.0), CFG),
    }


def test_1_iteration_and_convergence_tables(f2_sweeps, f4_sweeps):
    # mean iterations within 0.3 and convergence within 2 points of the
    # pinned full-grid reference numbers
    targets = {
        ("f2", "0"): (9.1, 100.0),
        ("f2", "1"): (8.4, 99.0),
        ("f4", "0"): (8.0, 100.0),
        ("f4", "1"): (6.4, 100.0),
    }
    got = {}
    ok = True
    for (fid, desc), (want_it, want_conv) in targets.items():
        metrics = f2_sweeps[desc] if fid == "f2" else f4_sweeps[desc]
        got[(fid, desc)] = (metrics.mean_iterations, metrics.convergence_pct)
        ok &= abs(metrics.mean_iterations - want_it) <= 0.3
        ok &= abs(metrics.convergence_pct - want_conv) <= 2.0
    detail = "; ".join(
        f"{fid} b={d}: iters {it:.3f} (want {targets[(fid, d)][0]}+-0.3), "
        f"conv {cv:.2f}% (want {targets[(fid, d)][1]}+-2)"
        for (fid, d), (it, cv) in got.items())
    _report(1, ok, detail)


def test_2_annealing_row_and_relative_time(f2_sweeps):
    p = get_problem("f2")
    metrics = f2_sweeps["anneal"]
    hit = order_probe(p, GRID, BetaSchedule.annealing(), CFG)
    q = hit[0].q_final if hit else float("nan")
    runs = {desc: (sched, f2_sweeps[desc]) for desc, sched in TABLE2_MODES}
    reps = [relative_times(p, runs, CFG) for _ in range(TIMING_REPS)]
    rel1 = np.median([rel["1"] for rel in reps])
    rela = np.median([rel["anneal"] for rel in reps])
    ok = (abs(metrics.mean_iterations - 6.5) <= 0.3
          and abs(metrics.convergence_pct - 100.0) <= 1.0
          and abs(q - 4.14) <= 0.4
          and rel1 < 1.0 < rela)
    _report(2, ok,
            f"f2 anneal: iters {metrics.mean_iterations:.3f} (want 6.5+-0.3), "
            f"conv {metrics.convergence_pct:.2f}% (want 100+-1), "
            f"order {q:.3f} (want 4.14+-0.4), "
            f"median rel_time b=1 {rel1:.3f} < 1 < anneal {rela:.3f}")


def test_3_convergence_orders():
    gates = []
    for fid in ("f2", "f4", "f7", "f9", "f11", "f12"):
        gates.append((fid, 0.0, 2.00, 0.10))
        gates.append((fid, 1.0, 3.00, 0.15))
    gates.append(("f5", 0.0, 1.00, 0.05))
    gates.append(("f5", 1.0, 1.00, 0.05))
    gates.append(("f6", 0.0, 3.00, 0.10))
    gates.append(("f6", 1.0, 5.00, 0.50))
    ok = True
    rows = []
    for fid, beta, want, tol in gates:
        hit = order_probe(get_problem(fid), GRID, BetaSchedule.fixed(beta), CFG)
        q = hit[0].q_final if hit else float("nan")
        good = hit is not None and hit[0].valid and abs(q - want) <= tol
        ok &= good
        rows.append(f"{fid}@b{beta:g}: {q:.3f} (want {want}+-{tol})")
    _report(3, ok, "; ".join(rows))


def test_4_cube_root_window():
    p = cube_root_problem()
    win = cube_root_window()
    ok = True
    worst = 0.0
    for beta in [k / 10 for k in range(11)] + [win.beta_min]:
        want = abs(win.multiplier(beta))
        for x0 in (-1.9, -0.37, 0.8, 1.7):
            out = iterate(p, complex(x0, 0.0), BetaSchedule.fixed(beta),
                          IterationConfig(max_iter=1, trace=True))
            ratio = abs(out.trace[1]) / abs(out.trace[0])
            worst = max(worst, abs(ratio - want))
            ok &= abs(ratio - want) <= 1e-10
    diverged = True
    for beta in (0.0, 1.0):
        out = iterate(p, 1.7 + 0.0j, BetaSchedule.fixed(beta),
                      IterationConfig(max_iter=200))
        diverged &= out.status is Status.MAX_ITERATIONS and abs(out.final) > 1.0
    ok &= diverged
    steps = 0
    for x0 in np.linspace(-2.0, 2.0, 81):
        if x0 == 0.0:
            continue
        out = iterate(p, complex(x0, 0.0), BetaSchedule.fixed(win.beta_min),
                      IterationConfig(max_iter=200))
        ok &= out.status is Status.CONVERGED
        steps = max(steps, out.iterations)
    ok &= steps <= 3
    _report(4, ok,
            f"one-step contraction matches |multiplier| to {worst:.2e} "
            f"(bound 1e-10); beta 0 and 1 diverge: {diverged}; "
            f"beta={win.beta_min:.5f} converges in <= {steps} steps from 80 starts")


def test_5_basin_entropy(f2_sweeps):
    affine_map = sweep(affine_problem(), GRID, BetaSchedule.fixed(0.0), CFG)
    s_affine = basin_entropy(affine_map, 20)
    p = get_problem("f2")
    neg_map = sweep(p, GRID, BetaSchedule.fixed(-1.0), CFG)
    maps = {-1.0: neg_map, 0.0: f2_sweeps["0"], 1.0: f2_sweeps["1"]}
    s = {b: basin_entropy(m, 20) for b, m in maps.items()}
    ok = s_affine == 0.0
    ok &= all(0.0 <= s[b] <= math.log(len(m.catalog.roots) + 1)
              for b, m in maps.items())
    ok &= s[-1.0] > s[0.0] and s[1.0] > s[0.0]
    _report(5, ok,
            f"affine S={s_affine}; f2 S(-1)={s[-1.0]:.4f}, S(0)={s[0.0]:.4f}, "
            f"S(+1)={s[1.0]:.4f}; off-Newton strictly higher and within [0, ln(K+1)]")


def test_6_kuramoto_synchronization():
    psi = 0.3
    kappa = 1.3
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    delays = np.array([[0.0, psi], [psi, 0.0]])
    pair = KuramotoSystem(2, gamma, delays, kappa)
    closed = True
    for start, want_phi, sign in ((0.1, 0.0, 1.0), (3.0, math.pi, -1.0)):
        sol = solve_sync(pair, np.array([start]), BetaSchedule.annealing())
        phi1 = sol.phases[1] % (2 * math.pi)
        dist = min(abs(phi1 - want_phi), 2 * math.pi - abs(phi1 - want_phi))
        closed &= (sol.status is Status.CONVERGED and dist < 1e-9
                   and abs(sol.omega - sign * kappa * math.sin(psi)) < 1e-12
                   and sol.residual_norm < 1e-12)

    rng_sizes = [3, 4, 5, 6, 7, 8]
    converged = 0
    worst_var = 0.0
    seed = 0
    while converged < 20 and seed < 200:
        n = rng_sizes[seed % len(rng_sizes)]
        sys_obj = random_kuramoto(n, seed)
        sol = solve_sync(sys_obj, sched=BetaSchedule.annealing())
        seed += 1
        if sol.status is not Status.CONVERGED:
            continue
        converged += 1
        v = rotor_velocities(sys_obj, sol.phases)
        worst_var = max(worst_var, float(np.var(v)))
    vel_ok = converged == 20 and worst_var < 1e-20

    base = random_kuramoto(5, seed=77)
    ref = None
    kappa_dev = 0.0
    for k in (0.1, 1.0, 10.0):
        sol = solve_sync(KuramotoSystem(5, base.gamma, base.psi, k),
                         sched=BetaSchedule.annealing())
        if ref is None:
            ref = sol.phases
        kappa_dev = max(kappa_dev, float(np.abs(sol.phases - ref).max()))
    kappa_ok = kappa_dev < 1e-10

    ok = closed and vel_ok and kappa_ok
    _report(6, ok,
            f"two-rotor closed form: {closed}; {converged}/20 random systems "
            f"locked with velocity variance <= {worst_var:.2e} (bound 1e-20); "
            f"phase drift across kappa {kappa_dev:.2e} (bound 1e-10)")


def test_7_method_properties():
    # beta = 0 collapses to plain Newton, bitwise
    newton_ok = True
    rng = np.random.default_rng(5)
    for fid in ("f2", "f9"):
        p = get_problem(fid)
        for _ in range(17):
            z0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            out = iterate(p, z0, BetaSchedule.fixed(0.0),
                          IterationConfig(trace=True))
            z = np.complex128(z0)
            for k in range(1, len(out.trace)):
                z = z - p.eval(z) / p.deriv(z)
                newton_ok &= complex(z) == out.trace[k]

    # every known root is a one-step fixed point at any usable beta
    root_ok = True
    for p in list_problems():
        for r in p.known_roots:
            if abs(np.complex128(p.deriv(np.complex128(r)))) < 1e-8:
                continue
            for beta in (-1 + 1e-6, -0.5, 0.5, 1.0):
                out = iterate(p, r, BetaSchedule.fixed(beta))
                root_ok &= out.status is Status.CONVERGED
                root_ok &= out.iterations == 1
                root_ok &= abs(out.final - r) < 1e-12

    # annealed weight lands in (0, 2]; same-sign real pairs contract
    anneal_ok = True
    u = rng.uniform(0.01, 3.0, 10_000) * np.where(rng.random(10_000) < 0.5, -1, 1)
    v = np.abs(rng.normal(0, 1.5, 10_000)) * np.sign(u) + 1e-9 * np.sign(u)
    for uk, vk in zip(u, v):
        b = _anneal_weight(uk * uk, vk * vk)
        anneal_ok &= 0.0 < b <= 2.0
        anneal_ok &= abs(1.0 - b * (vk / uk)) <= 1.0 + 1e-15

    # sweeps do not depend on how rows are handed to workers
    p6 = get_problem("f6")
    small = GridSpec(nx=250, ny=250)
    ref = None
    part_ok = True
    for jobs in (1, 2, 8):
        bmap = sweep(p6, small, BetaSchedule.annealing(), CFG, jobs=jobs)
        if ref is None:
            ref = bmap
        part_ok &= np.array_equal(bmap.labels, ref.labels)
        part_ok &= np.array_equal(bmap.iter_counts, ref.iter_counts)
        part_ok &= bmap.catalog.roots == ref.catalog.roots

    # the order estimator is exact on synthetic geometric-order traces
    acoc_ok = True
    worst = 0.0
    for order in (1, 2, 3):
        a, exps = 1, []
        for _ in range(12):
            exps.append(a)
            a = a * order + (1 if order == 1 else 0)
        z, trace = 0.0, [0.0]
        for e in exps:
            z += 2.0 ** (-e)
            trace.append(z)
        est = estimate_order([complex(t, 0) for t in trace], epsilon=1e-30)
        err = abs(est.q_final - order)
        worst = max(worst, err)
        acoc_ok &= est.valid and err <= 1e-9

    ok = newton_ok and root_ok and anneal_ok and part_ok and acoc_ok
    _report(7, ok,
            f"beta=0 bitwise Newton: {newton_ok}; root fixed-point: {root_ok}; "
            f"annealed weight in (0,2] with |1-b*v/u|<=1: {anneal_ok}; "
            f"worker-count invariance: {part_ok}; synthetic order error "
            f"{worst:.2e} (bound 1e-9)")


def test_8_local_error_ratio():
    # measured e_{n+1}/e_n^2 against the predicted (1-beta)*f''(r)/(2 f'(r)),
    # with f''(1) = 6 and f'(1) = 3 for f2 = x^3 - 1
    p = get_problem("f2")
    ok = True
    rows = []
    for beta in (0.0, 0.5):
        want = (1.0 - beta) / 2.0 * 6.0 / 3.0
        out = iterate(p, 1.3 + 0.0j, BetaSchedule.fixed(beta),
                      IterationConfig(trace=True))
        errs = [abs(t - 1.0) for t in out.trace]
        measured = None
        for e0, e1 in zip(errs, errs[1:]):
            if 1e-7 < e0 < 1e-3:
                measured = e1 / e0 ** 2
                break
        good = measured is not None and abs(measured - want) <= 0.2 * want
        ok &= good
        shown = "n/a" if measured is None else f"{measured:.4f}"
        rows.append(f"beta {beta}: measured {shown} vs {want} (20%)")
    _report(8, ok, "; ".join(rows))
