"""Vector form of the two-step update and the Kuramoto phase-locking problem.

A phase-locked state of N coupled rotors (coupling matrix gamma, phase
delays psi, overall coupling kappa) is a common-velocity solution of

    velocity_i = kappa * sum_j gamma[i, j] * sin(phi_i - phi_j + psi[i, j])

Pinning phi_0 = 0 and eliminating the common velocity omega via rotor 0
leaves N-1 trigonometric equations in phi_1..phi_{N-1}; kappa scales out
entirely, so the reduced residual is kappa-free.  The solver is the vector
analogue of the scalar update: both linear solves of a step reuse the one
LU factorization of the Jacobian at the step's starting point.

The residual uses no trigonometry over an N x N array.  By angle addition,
sin(phi_i - phi_j + psi_ij) splits into sin and cos of the N phases times
A = gamma * cos(psi) and B = gamma * sin(psi), which `build_kuramoto_problem`
forms once; a residual call is then four matrix-vector products in numpy's
own loops, with no BLAS call.  The Jacobian keeps its cos form but is built
transposed in one N x N buffer, so that J comes out Fortran-ordered and
LAPACK overwrites it with its LU factors instead of copying it.  A step so
holds one N x N array besides gamma, psi, A and B.  A rejected Jacobian
(non-finite, singular or too ill-conditioned) or a non-finite step ends
`solve_sync` with a numerical-failure status, never an exception.
`rotor_velocities` stays on the direct N x N sine sum, sharing no formula
with the residual, so it remains an independent cross-check of a
converged state.

LAPACK runs on one thread, for the whole process: the first `_factor` call
sets the OpenBLAS behind scipy's LAPACK to one thread.  With a second
thread, three things went wrong.  OpenBLAS's idle worker spun through the
numpy phases between LU calls, so a solve used about twice its wall time in
CPU.  The LU factors, and so the phases, depended in their last bits on the
thread count.  And on a busy two-core machine a two-thread factorization at
N = 299 could stall for 160 ms, where it usually takes about 1 ms.  The
numpy phases make no BLAS call, so this is the only thread count to set.
One thread costs at most about 8 ms more per LU at N = 1199 (about 30 ms
against 22-30 ms with two threads), and nothing at N = 299 or 599.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ANNEALING, BetaSchedule, IterationConfig, Status, _anneal_weight

_RCOND_MIN = 1e-14  # reciprocal condition estimate below this is singular


class MalformedSystem(ValueError):
    """Kuramoto system JSON does not match the expected schema."""


@dataclass(frozen=True)
class VectorProblem:
    """A residual map R^m -> R^m with an analytic Jacobian.

    jacobian must return a new array on each call: the vector step
    overwrites it with its LU factors.
    """

    dim: int
    residual: Callable
    jacobian: Callable


@dataclass(frozen=True)
class KuramotoSystem:
    """N rotors with directed weighted coupling and phase delays.

    gamma and psi are N x N with zero gamma diagonal; gamma may be
    asymmetric.  kappa is the positive overall coupling constant.
    """

    n_rotors: int
    gamma: np.ndarray
    psi: np.ndarray
    kappa: float = 1.0

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        p = np.asarray(self.psi, dtype=float)
        n = self.n_rotors
        if n < 2:
            raise ValueError("need at least two rotors")
        if g.shape != (n, n) or p.shape != (n, n):
            raise ValueError("gamma and psi must be n_rotors x n_rotors")
        if not (np.isfinite(g).all() and np.isfinite(p).all()):
            raise ValueError("gamma and psi must be finite")
        if np.any(np.diag(g) != 0):
            raise ValueError("gamma must have a zero diagonal")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "psi", p)


@dataclass(frozen=True)
class SyncSolution:
    """Phase-locked state: full phase vector (phases[0] = 0) and velocity."""

    phases: np.ndarray
    omega: float
    residual_norm: float
    status: Status
    iterations: int


def _sq_norm(J: np.ndarray) -> float:
    """Squared Frobenius norm, without an N x N temporary."""
    return float(np.einsum("ij,ij->", J, J))


@functools.cache
def _one_lapack_thread() -> None:
    """Run the OpenBLAS behind scipy's LAPACK on one thread, process-wide.

    Opens scipy's own LAPACK extension with ctypes, so that symbol lookup
    searches its dependencies and finds exactly the OpenBLAS it links, and
    calls that library's thread-count setter with 1.  A scipy built on
    another BLAS (MKL, Accelerate) exports none of these names, and then
    this does nothing.  Cached: it runs once per process.
    """
    import ctypes

    from scipy.linalg import _flapack

    lib = ctypes.CDLL(_flapack.__file__)
    for name in ("scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
                 "openblas_set_num_threads"):
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)
            return


def _factor(J: np.ndarray):
    """LU-factor J and estimate its condition; a solve function, or None.

    The returned function maps b to the solution x of J x = b.  J is
    rejected (None) when it has a non-finite entry, when LAPACK fails, or
    when the reciprocal 1-norm condition estimate falls below _RCOND_MIN.  A
    Fortran-ordered J is overwritten by its factors; any other is copied.
    scipy is imported here, at the package's only LAPACK call, so importing
    betanewton loads no scipy until the first factorization, and the first
    call pins LAPACK to one thread (`_one_lapack_thread`).
    """
    from scipy.linalg import LinAlgWarning, lapack, lu_factor, lu_solve

    _one_lapack_thread()

    if not np.isfinite(J).all():
        return None
    anorm = lapack.dlange("1", J) if J.size else 0.0
    try:
        with warnings.catch_warnings():
            # exact singularity is caught by the condition estimate below
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(J, overwrite_a=True, check_finite=False)
    except ValueError:
        return None
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < _RCOND_MIN:
        return None
    return lambda b: lu_solve((lu, piv), b, check_finite=False)


def vector_extended_step(vp: VectorProblem, phi: np.ndarray, sched: BetaSchedule) -> np.ndarray:
    """One vector two-step update with a single LU factorization.

    Solves J d1 = R(phi) and J d2 = R(phi - d1) with the same factored
    J = jacobian(phi), returning phi - d1 - beta * d2.  A fixed schedule
    supplies beta.  The annealing schedule takes the vector analogue of the
    scalar weight, beta = 2a / (a + b) with a and b the squared Frobenius
    norms of J and of the Jacobian at phi - d1, which costs one more
    Jacobian evaluation.  a is read before the LU overwrites J, and the
    second Jacobian is built after the factors are freed, so a step holds
    one N x N buffer at a time.  Returns all NaN when J cannot be trusted.
    """
    phi = np.asarray(phi, dtype=float)
    J = vp.jacobian(phi)
    anneal = sched.mode == ANNEALING
    a = _sq_norm(J) if anneal else None
    solve = _factor(J)
    if solve is None:
        return np.full_like(phi, np.nan)
    d1 = solve(vp.residual(phi))
    phi_hat = phi - d1
    d2 = solve(vp.residual(phi_hat))
    del J, solve
    beta = _anneal_weight(a, _sq_norm(vp.jacobian(phi_hat))) if anneal else sched.beta
    return phi_hat - beta * d2


def rotor_velocities(sys: KuramotoSystem, phases: np.ndarray) -> np.ndarray:
    """kappa * sum_j gamma[i, j] * sin(phases_i - phases_j + psi[i, j]) per rotor."""
    phases = np.asarray(phases, dtype=float)
    terms = np.subtract.outer(phases, phases)
    terms += sys.psi
    np.sin(terms, out=terms)
    terms *= sys.gamma
    return sys.kappa * terms.sum(axis=1)


def omega_from_phases(sys: KuramotoSystem, phases: np.ndarray) -> float:
    """Common velocity implied by rotor 0; requires the phi_0 = 0 gauge."""
    phases = np.asarray(phases, dtype=float)
    if phases[0] != 0.0:
        raise ValueError("gauge violation: phases[0] must be 0")
    return float(sys.kappa * (sys.gamma[0] * np.sin(sys.psi[0] - phases)).sum())


def build_kuramoto_problem(sys: KuramotoSystem) -> VectorProblem:
    """Reduced residual in phi_1..phi_{N-1} with phi_0 = 0 and omega eliminated.

    residual_i = f_0 - f_i where f_i = sum_j gamma[i, j] sin(phi_i - phi_j + psi[i, j])
    and f_0 = omega/kappa; kappa does not appear.  By angle addition, with
    c = cos(phi), s = sin(phi), A = gamma * cos(psi) and B = gamma * sin(psi),

        f_i = s_i (A c + B s)_i + c_i (B c - A s)_i

    A and B are formed once here, so a residual call costs sin and cos of the
    N phases and four matrix-vector products (np.einsum, not BLAS).  The
    Jacobian is the cos form, built in place in one new (N-1) x (N-1) array
    per call and returned Fortran-ordered.
    """
    m = sys.n_rotors - 1
    g = sys.gamma
    ps = sys.psi
    A = np.cos(ps)
    A *= g
    B = np.sin(ps)
    B *= g
    diag = np.arange(m)

    def residual(phi):
        full = np.concatenate(([0.0], np.asarray(phi, dtype=float)))
        c = np.cos(full)
        s = np.sin(full)
        f = (s * (np.einsum("ij,j->i", A, c) + np.einsum("ij,j->i", B, s))
             + c * (np.einsum("ij,j->i", B, c) - np.einsum("ij,j->i", A, s)))
        return f[0] - f[1:]

    def jacobian(phi):
        phi = np.asarray(phi, dtype=float)
        # jt = J^T in C order, so J = jt.T is Fortran-ordered for an in-place LU;
        # jt[k, i] = gamma[i, k] cos(phi_i - phi_k + psi[i, k]) for rotors i, k >= 1
        jt = np.subtract.outer(phi, phi)
        np.subtract(ps[1:, 1:].T, jt, out=jt)
        np.cos(jt, out=jt)
        jt *= g[1:, 1:].T
        # d f_0 / d phi_k, shared by every row of J, and rotor 0's term in each f_i
        ddrive = -g[0, 1:] * np.cos(ps[0, 1:] - phi)
        c0 = g[1:, 0] * np.cos(phi + ps[1:, 0])
        row_sums = c0 + jt.sum(axis=0)
        jt += ddrive[:, None]
        jt[diag, diag] = ddrive - row_sums
        return jt.T

    return VectorProblem(m, residual, jacobian)


def solve_sync(
    sys: KuramotoSystem,
    phi0: Optional[np.ndarray] = None,
    sched: BetaSchedule = BetaSchedule.fixed(0.0),
    cfg: Optional[IterationConfig] = None,
) -> SyncSolution:
    """Find a phase-locked state from phi0 (reduced coordinates, length N-1).

    Stops when the max-norm step displacement drops below epsilon (vector
    default 1e-12).  On convergence the state is cross-checked: every rotor
    velocity must match omega to 1e-10, otherwise the run is downgraded to a
    numerical failure.  A step whose Jacobian is rejected (non-finite,
    singular or too ill-conditioned) or whose result is not finite ends the
    run with a numerical failure and the steps completed before it.
    """
    if cfg is None:
        cfg = IterationConfig(epsilon=1e-12)
    vp = build_kuramoto_problem(sys)
    phi = np.zeros(sys.n_rotors - 1) if phi0 is None else np.asarray(phi0, dtype=float).copy()
    if phi.shape != (sys.n_rotors - 1,):
        raise ValueError("phi0 must have length n_rotors - 1")
    status = Status.MAX_ITERATIONS
    iterations = cfg.max_iter
    for step in range(1, cfg.max_iter + 1):
        phi_next = vector_extended_step(vp, phi, sched)
        if not np.isfinite(phi_next).all():
            status = Status.NUMERICAL_FAILURE
            iterations = step - 1
            break
        disp = np.abs(phi_next - phi).max()
        phi = phi_next
        if disp < cfg.epsilon:
            status = Status.CONVERGED
            iterations = step
            break
    phases = np.concatenate(([0.0], phi))
    omega = omega_from_phases(sys, phases)
    residual_norm = float(np.abs(vp.residual(phi)).max())
    del vp  # A and B are not needed for the cross-check
    if status is Status.CONVERGED:
        v = rotor_velocities(sys, phases)
        if np.abs(v - omega).max() >= 1e-10:
            status = Status.NUMERICAL_FAILURE
    return SyncSolution(phases, omega, residual_norm, status, iterations)


def random_kuramoto(n: int, seed: int, kappa: float = 1.0) -> KuramotoSystem:
    """Seeded random system: gamma ~ U[0,1) off-diagonal, psi ~ U[-0.5, 0.5)."""
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(gamma, 0.0)
    psi = rng.uniform(-0.5, 0.5, (n, n))
    return KuramotoSystem(n, gamma, psi, kappa)


def kuramoto_from_json(obj) -> KuramotoSystem:
    """Parse {n, gamma, psi, kappa} with row-major matrix lists."""
    if isinstance(obj, (str, bytes)):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise MalformedSystem(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedSystem("system must be a JSON object")
    try:
        n = int(obj["n"])
        gamma = np.asarray(obj["gamma"], dtype=float).reshape(n, n)
        psi = np.asarray(obj["psi"], dtype=float).reshape(n, n)
        kappa = float(obj.get("kappa", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedSystem(f"bad system fields: {exc}") from exc
    try:
        return KuramotoSystem(n, gamma, psi, kappa)
    except ValueError as exc:
        raise MalformedSystem(str(exc)) from exc


def kuramoto_to_json(sys: KuramotoSystem) -> dict:
    return {
        "n": sys.n_rotors,
        "gamma": sys.gamma.ravel().tolist(),
        "psi": sys.psi.ravel().tolist(),
        "kappa": sys.kappa,
    }


def sync_solution_to_json(sol: SyncSolution) -> dict:
    return {
        "phases": sol.phases.tolist(),
        "omega": sol.omega,
        "residual_norm": sol.residual_norm,
        "status": sol.status.value,
        "iterations": sol.iterations,
    }
