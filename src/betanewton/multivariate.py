"""Vector form of the two-step update and the Kuramoto phase-locking problem.

A phase-locked state of N coupled rotors (coupling matrix gamma, phase
delays psi, overall coupling kappa) is a common-velocity solution of

    velocity_i = kappa * sum_j gamma[i, j] * sin(phi_i - phi_j + psi[i, j])

Pinning phi_0 = 0 and eliminating the common velocity omega via rotor 0
leaves N-1 trigonometric equations in phi_1..phi_{N-1}; kappa scales out
entirely, so the reduced residual is kappa-free.  The solver is the vector
analogue of the scalar update: both linear solves of a step reuse the one
LU factorization of the Jacobian at the step's starting point.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgWarning, lapack, lu_factor, lu_solve

from .core import ANNEALING, BetaSchedule, IterationConfig, Status

_RCOND_MIN = 1e-14  # reciprocal condition estimate below this is singular


class SingularJacobian(RuntimeError):
    """Jacobian factorization failed or the condition estimate blew up."""


class MalformedSystem(ValueError):
    """Kuramoto system JSON does not match the expected schema."""


@dataclass(frozen=True)
class VectorProblem:
    """A residual map R^m -> R^m with an analytic Jacobian."""

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


def _factor(J: np.ndarray):
    """LU-factor J and estimate its condition; raise when untrustworthy."""
    if not np.isfinite(J).all():
        raise SingularJacobian("non-finite Jacobian entries")
    anorm = np.abs(J).sum(axis=0).max() if J.size else 0.0
    try:
        with warnings.catch_warnings():
            # exact singularity is detected below and raised; the warning is noise
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(J)
    except ValueError as exc:
        raise SingularJacobian(str(exc)) from exc
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < _RCOND_MIN:
        raise SingularJacobian(
            f"singular Jacobian at iterate (rcond estimate {rcond:.3e})")
    return lu, piv


def vector_extended_step(vp: VectorProblem, phi: np.ndarray, sched: BetaSchedule) -> np.ndarray:
    """One vector two-step update with a single LU factorization.

    Solves J d1 = R(phi) and J d2 = R(phi - d1) with the same factored
    J = jacobian(phi), returning phi - d1 - beta * d2.  A fixed schedule
    supplies beta.  The annealing schedule takes the vector analogue of the
    scalar weight, beta = 2a / (a + b) with a and b the squared Frobenius
    norms of J and of the Jacobian at phi - d1, which costs one more
    Jacobian evaluation.  Raises SingularJacobian when J cannot be trusted.
    """
    phi = np.asarray(phi, dtype=float)
    J = vp.jacobian(phi)
    lu, piv = _factor(J)
    d1 = lu_solve((lu, piv), vp.residual(phi))
    phi_hat = phi - d1
    d2 = lu_solve((lu, piv), vp.residual(phi_hat))
    if sched.mode == ANNEALING:
        a = float((J * J).sum())
        b = float((vp.jacobian(phi_hat) ** 2).sum())
        beta = 2.0 * a / (a + b)
    else:
        beta = sched.beta
    return phi_hat - beta * d2


def rotor_velocities(sys: KuramotoSystem, phases: np.ndarray) -> np.ndarray:
    """kappa * sum_j gamma[i, j] * sin(phases_i - phases_j + psi[i, j]) per rotor."""
    phases = np.asarray(phases, dtype=float)
    diff = phases[:, None] - phases[None, :] + sys.psi
    return sys.kappa * (sys.gamma * np.sin(diff)).sum(axis=1)


def omega_from_phases(sys: KuramotoSystem, phases: np.ndarray) -> float:
    """Common velocity implied by rotor 0; requires the phi_0 = 0 gauge."""
    phases = np.asarray(phases, dtype=float)
    if phases[0] != 0.0:
        raise ValueError("gauge violation: phases[0] must be 0")
    return float(sys.kappa * (sys.gamma[0] * np.sin(sys.psi[0] - phases)).sum())


def build_kuramoto_problem(sys: KuramotoSystem) -> VectorProblem:
    """Reduced residual in phi_1..phi_{N-1} with phi_0 = 0 and omega eliminated.

    residual_i = drive - f_i where drive = sum_j gamma[0, j] sin(psi[0, j] - phi_j)
    is omega/kappa and f_i = sum_j gamma[i, j] sin(phi_i - phi_j + psi[i, j]);
    kappa does not appear.
    """
    n = sys.n_rotors
    g = sys.gamma
    ps = sys.psi

    def residual(phi):
        full = np.concatenate(([0.0], np.asarray(phi, dtype=float)))
        drive = (g[0] * np.sin(ps[0] - full)).sum()
        diff = full[1:, None] - full[None, :] + ps[1:]
        f = (g[1:] * np.sin(diff)).sum(axis=1)
        return drive - f

    def jacobian(phi):
        full = np.concatenate(([0.0], np.asarray(phi, dtype=float)))
        c = g[1:] * np.cos(full[1:, None] - full[None, :] + ps[1:])
        ddrive = -g[0, 1:] * np.cos(ps[0, 1:] - full[1:])
        jac = np.tile(ddrive, (n - 1, 1))
        jac += c[:, 1:]
        idx = np.arange(n - 1)
        jac[idx, idx] = ddrive - c.sum(axis=1)
        return jac

    return VectorProblem(n - 1, residual, jacobian)


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
    numerical failure.  A singular Jacobian raises.
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
