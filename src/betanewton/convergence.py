"""Convergence-order estimation and the exact cube-root contraction analysis.

The empirical order of a trace z_0..z_n uses successive displacement
magnitudes e_k = |z_k - z_{k-1}|:

    q_k = log(e_{k+1}/e_k) / log(e_k/e_{k-1})

and the reported order is the last q_k before the displacements fall below
the stopping threshold.  The final sub-threshold displacement still enters
as a numerator when it is resolved (more than a couple of ulp of the limit
point); below that it is quantization noise and is discarded, exactly like
a zero displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from . import basin
from .basin import _CHUNK_ROWS, _ST_CONVERGED, _starts
from .core import (
    ANNEALING,
    BetaSchedule,
    IterationConfig,
    IterationOutcome,
    ScalarProblem,
    Status,
    iterate,
)

_EPS_MACH = float(np.finfo(float).eps)

# minimum completed update steps for a trace to support an order estimate
MIN_ORDER_ITERATIONS = 8


class DegenerateRoot(ValueError):
    """The error-ratio formula needs f'(root) != 0."""


@dataclass(frozen=True)
class OrderEstimate:
    """Empirical convergence order of one iterate trace.

    q_final is the last entry of q_series (None when no q was computable);
    valid requires at least MIN_ORDER_ITERATIONS completed steps and a
    non-empty q_series.
    """

    q_series: tuple
    q_final: Optional[float]
    valid: bool


def estimate_order(trace: Sequence[complex], epsilon: float = 1e-14) -> OrderEstimate:
    """Estimate the convergence order from an iterate trace.

    Displacements from the first one below epsilon onward are excluded
    (an exact repeat counts as convergence there), except that the first
    sub-epsilon displacement is kept as a final numerator when it exceeds
    a 2-ulp noise floor scaled by the limit point.  Ratios whose
    denominator log vanishes (equal successive displacements) are skipped.
    """
    if len(trace) < 2:
        return OrderEstimate((), None, False)
    e = [abs(trace[k] - trace[k - 1]) for k in range(1, len(trace))]
    stop = len(e)
    for k, v in enumerate(e):
        if v < epsilon:
            stop = k
            break
    series = e[:stop]
    floor = 2.0 * _EPS_MACH * max(1.0, abs(trace[-1]))
    if stop < len(e) and e[stop] > floor:
        series.append(e[stop])
    qs = []
    for n in range(1, len(series) - 1):
        if series[n - 1] <= 0 or series[n] <= 0 or series[n + 1] <= 0:
            continue
        den = math.log(series[n] / series[n - 1])
        if den == 0:
            continue
        qs.append(math.log(series[n + 1] / series[n]) / den)
    q_final = qs[-1] if qs else None
    iterations = len(trace) - 1
    valid = iterations >= MIN_ORDER_ITERATIONS and bool(qs)
    return OrderEstimate(tuple(qs), q_final, valid)


def order_probe(
    p: ScalarProblem,
    sched: BetaSchedule,
    cfg: IterationConfig,
    re_coords: Sequence[float],
    im_coords: Sequence[float],
):
    """Scan starting points and estimate the order of the first usable trace.

    Candidates must converge with at least MIN_ORDER_ITERATIONS steps and
    yield a computable q.  Fixed schedules scan the grid in row-major order
    (real index outer).  The annealing schedule scans real-axis starts first:
    its per-step beta is real, so the cancellation that lifts the order
    beyond three acts only on real trajectories, and a complex start would
    systematically measure the lower off-axis order.

    The scan is screened by the vectorized sweep kernel: the real axis is one
    block, and the grid follows in blocks of 1, 2, 4, ... rows, capped at the
    sweep's chunk height, so the blocks depend only on the grid.  Within each
    block, the traced scalar `iterate` runs, in scan order, only on starts
    the kernel reports converged in at least MIN_ORDER_ITERATIONS steps.
    The scalar run decides, by its status, iteration count and estimate
    validity, as in an unscreened scan.  The two scans can pick differently
    only where kernel and scalar path disagree in the last bits (see the
    `core` module docstring) on a start ahead of the pick.

    Returns (OrderEstimate, start_point, IterationOutcome) or None.
    """
    probe_cfg = replace(cfg, trace=True)
    re = np.asarray(re_coords, dtype=float)
    im = np.asarray(im_coords, dtype=float)

    def attempt(z0):
        out = iterate(p, z0, sched, probe_cfg)
        if out.status is not Status.CONVERGED:
            return None
        if out.iterations < MIN_ORDER_ITERATIONS:
            return None
        est = estimate_order(out.trace, probe_cfg.epsilon)
        if not est.valid:
            return None
        return est, z0, out

    def blocks():
        if sched.mode == ANNEALING:
            yield _starts(re, np.zeros(1))
        i0, rows = 0, 1
        while i0 < re.size:
            yield _starts(re[i0:i0 + rows], im)
            i0 += rows
            rows = min(2 * rows, _CHUNK_ROWS)

    for z0 in blocks():
        # looked up at call time, so a wrapper installed on basin._sweep_chunk
        # (perfbench's tracing hooks) also sees the probe's kernel work
        status, iters, _ = basin._sweep_chunk(p, z0, sched, cfg)
        screened = (status == _ST_CONVERGED) & (iters >= MIN_ORDER_ITERATIONS)
        for k in np.flatnonzero(screened):
            hit = attempt(complex(z0[k]))
            if hit:
                return hit
    return None


_CBRT2 = float(np.cbrt(2.0))


@dataclass(frozen=True)
class CubeRootWindow:
    """Analytic behavior of the update on f(x) = x^(1/3) along the real axis.

    The update is exactly linear there, x_next = (-2 + 3*2^(1/3)*beta) * x,
    so it converges iff the multiplier has magnitude below one.
    """

    lower: float
    upper: float
    beta_min: float

    def multiplier(self, beta: float) -> float:
        return -2.0 + 3.0 * _CBRT2 * beta


def cube_root_window() -> CubeRootWindow:
    """Convergence window (1/(3*2^(1/3)), 2^(-1/3)) and its zero-multiplier beta."""
    return CubeRootWindow(
        lower=1.0 / (3.0 * _CBRT2),
        upper=1.0 / _CBRT2,
        beta_min=float(np.cbrt(4.0)) / 3.0,
    )


def _cbrt_eval(z):
    return np.cbrt(np.real(z)) + 0.0j * z


def _cbrt_deriv(z):
    x = np.real(z)
    with np.errstate(all="ignore"):
        c = np.cbrt(x)
        return 1.0 / (3.0 * c * c) + 0.0j * z


def cube_root_problem() -> ScalarProblem:
    """f(x) = x^(1/3) restricted to the real axis (real cube root).

    The complex cube root has a branch cut, so this problem treats the real
    part only; start iterations from real points.
    """
    return ScalarProblem(
        "cuberoot", _cbrt_eval, _cbrt_deriv, None, (0.0 + 0.0j,),
        "x^(1/3), real axis")


def analytic_error_ratio(p: ScalarProblem, root: complex, beta: float) -> complex:
    """Predicted limit of (z_next - r)/(z - r)^2 near a simple root r.

    Equals (1 - beta)/2 * f''(r)/f'(r); zero curvature or beta = 1 pushes
    the local order past two.
    """
    if p.deriv2 is None:
        raise ValueError(f"{p.id} has no second derivative")
    r = np.complex128(root)
    d1 = p.deriv(r)
    if abs(d1) < 1e-12:
        raise DegenerateRoot(f"f'({root}) = 0 for {p.id}; ratio undefined")
    return complex((1.0 - beta) / 2.0 * p.deriv2(r) / d1)
