"""Scalar complex root finding with a beta-weighted two-step Newton update.

One update consists of a classical Newton step followed by a correction that
reuses the derivative from the original point:

    x_hat  = x - f(x) / f'(x)
    x_next = x_hat - beta * f(x_hat) / f'(x)

beta = 0 reduces to Newton's method, beta = 1 gives a two-step method with
cubic local convergence at simple roots, and the adaptive "annealing"
schedule picks beta afresh each step from the derivative magnitudes at x and
x_hat.

One private `_update` serves the numpy scalars of `iterate` and the arrays
of the grid sweeps in `betanewton.basin` with the same IEEE double
expressions, taking f and f' from each problem's `fdf`.  numpy elides
temporaries of at least 256 KiB (16,384 complex elements), evaluating an
expression in place in its temporary operand; for a commutative operation it
swaps the operands when only the right one is a temporary, and FMA
contraction makes a complex product's last bit depend on the operand order.
So every product of two complex values in the registry has its temporary as
the left operand or multiplies named variables, and a sweep cell's bits do
not depend on the array length, hence on chunk size or grid width.  Scalar
and array results can still drift apart in the last bit at heavy
cancellations: numpy's SIMD complex multiply contracts with FMA while the
scalar one does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np


class Status(Enum):
    """Terminal state of an iteration run."""

    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


FIXED = "fixed"
ANNEALING = "annealing"


class UnknownProblem(KeyError):
    """Requested function id is not in the registry."""


class DegenerateScheduleInput(ValueError):
    """Annealing beta is undefined: both derivative magnitudes are zero."""


@dataclass(frozen=True)
class ScalarProblem:
    """A complex-analytic test function with hand-coded derivatives.

    eval/deriv/deriv2 accept and return numpy scalars or arrays; deriv2 and
    known_roots are optional.  display is a human-readable formula string.
    `fdf(z)` gives (f(z), f'(z)), the pair each update step needs: through
    `fused` where f and f' share transcendentals, else eval and deriv.
    """

    id: str
    eval: Callable
    deriv: Callable
    deriv2: Optional[Callable] = None
    known_roots: tuple = ()
    display: str = ""
    fused: Optional[Callable] = None

    def fdf(self, z):
        """(f(z), f'(z)), bit-identical to (eval(z), deriv(z))."""
        if self.fused is not None:
            return self.fused(z)
        fp = self.deriv(z)  # first, so that no f(z) array waits while f' is formed
        return self.eval(z), fp


@dataclass(frozen=True)
class BetaSchedule:
    """Rule supplying beta for each update step.

    mode is "fixed" (constant `beta`) or "annealing" (beta computed per step
    from derivative magnitudes; the stored `beta` is unused).
    """

    mode: str = FIXED
    beta: float = 0.0

    def __post_init__(self):
        if self.mode not in (FIXED, ANNEALING):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode == FIXED and not np.isfinite(self.beta):
            raise ValueError("fixed beta must be finite")

    @classmethod
    def fixed(cls, beta: float) -> "BetaSchedule":
        return cls(FIXED, float(beta))

    @classmethod
    def annealing(cls) -> "BetaSchedule":
        return cls(ANNEALING, 0.0)

    @property
    def degenerate(self) -> bool:
        """beta = -1 is allowed but the fixed-point argument fails there."""
        return self.mode == FIXED and self.beta == -1.0


@dataclass(frozen=True)
class IterationConfig:
    """Stopping rules for `iterate`.

    Convergence is declared when the step displacement |x_next - x| drops
    below epsilon; a step whose derivative magnitude is <= deriv_guard or
    whose result is non-finite is a numerical failure.
    """

    epsilon: float = 1e-14
    max_iter: int = 50
    deriv_guard: float = 1e-300
    trace: bool = False

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.deriv_guard < 0:
            raise ValueError("deriv_guard must be >= 0")


@dataclass(frozen=True)
class IterationOutcome:
    """Result of iterating one starting point.

    iterations counts completed update steps, including the final step whose
    displacement fell below epsilon.  evals_f and evals_fprime count function
    and derivative evaluations over completed steps only, so they satisfy
    closed forms for every status: evals_f = 2*iterations, evals_fprime =
    iterations for fixed schedules and 2*iterations for annealing (the
    schedule needs the derivative at x_hat as well).
    """

    status: Status
    final: complex
    iterations: int
    trace: Optional[tuple] = None
    evals_f: int = 0
    evals_fprime: int = 0


def _abs2(z):
    """|z|^2 formed as re*re + im*im, for numpy scalars and arrays alike."""
    return z.real * z.real + z.imag * z.imag


def _anneal_weight(a, b):
    """Annealing beta 2a/(a+b) from squared derivative sizes at x and x_hat.

    The scalar paths pass |f'|^2; the vector step passes the squared
    Frobenius norms of its two Jacobians.
    """
    # same bits as 2.0 * a / (a + b) wherever 0.5 * (a + b) is normal; 2.0 * a could overflow
    return a / (0.5 * (a + b))


def _update(p: ScalarProblem, z, anneal: bool, beta, guard: float):
    """One two-step update from z; returns (|f'(z)| > guard, x_next).

    z is a numpy scalar or array.  f and f' at z come from one `fdf`, and
    with anneal those at x_hat from another, for `_anneal_weight`.  In a
    sweep each value is a chunk-sized array, so f(z) is dropped once x_hat
    is formed, f'(x_hat) once beta is, and a fixed schedule's f(x_hat) stays
    a temporary.  Callers check finiteness and count evaluations.
    """
    f, fp = p.fdf(z)
    ok = abs(fp) > guard
    xhat = z - f / fp
    del f
    if not anneal:
        return ok, xhat - beta * (p.eval(xhat) / fp)
    fhat, fphat = p.fdf(xhat)
    beta = _anneal_weight(_abs2(fp), _abs2(fphat))
    del fphat
    return ok, xhat - beta * (fhat / fp)


def annealing_beta(fprime_n, fprime_hat) -> float:
    """Adaptive step weight from the derivative at x and at the Newton point.

    Returns 2|f'_n|^2 / (|f'_hat|^2 + |f'_n|^2), always real and in (0, 2]
    for nonzero f'_n.  It is the weight `iterate` and the sweep kernel use.
    """
    fp = np.complex128(fprime_n)
    fh = np.complex128(fprime_hat)
    with np.errstate(all="ignore"):
        a, b = _abs2(fp), _abs2(fh)
        denom = a + b
        if not denom > 0:
            raise DegenerateScheduleInput("both derivative magnitudes are zero")
        if not np.isfinite(denom):
            raise DegenerateScheduleInput("derivative magnitude overflow")
        return float(_anneal_weight(a, b))


def iterate(
    p: ScalarProblem,
    x0,
    sched: BetaSchedule = BetaSchedule.fixed(0.0),
    cfg: IterationConfig = IterationConfig(),
) -> IterationOutcome:
    """Run the two-step update from x0 until displacement < epsilon.

    Deterministic: identical inputs give bit-identical traces.  Failures are
    encoded in the status, never raised.
    """
    z = np.complex128(x0)
    trace = [complex(z)] if cfg.trace else None
    anneal = sched.mode == ANNEALING
    evals_f = 0
    evals_fp = 0
    with np.errstate(all="ignore"):
        for step in range(1, cfg.max_iter + 1):
            ok, znext = _update(p, z, anneal, sched.beta, cfg.deriv_guard)
            znext = np.complex128(znext)
            if not (ok and math.isfinite(znext.real) and math.isfinite(znext.imag)):
                return IterationOutcome(
                    Status.NUMERICAL_FAILURE, complex(z), step - 1,
                    tuple(trace) if cfg.trace else None, evals_f, evals_fp)
            evals_f += 2
            evals_fp += 2 if anneal else 1
            if cfg.trace:
                trace.append(complex(znext))
            disp = abs(znext - z)
            z = znext
            if disp < cfg.epsilon:
                return IterationOutcome(
                    Status.CONVERGED, complex(z), step,
                    tuple(trace) if cfg.trace else None, evals_f, evals_fp)
    return IterationOutcome(
        Status.MAX_ITERATIONS, complex(z), cfg.max_iter,
        tuple(trace) if cfg.trace else None, evals_f, evals_fp)


# ---------------------------------------------------------------------------
# Test-function registry.  Evaluations are written with numpy ufuncs so the
# same code serves scalars and whole grids; factored forms are kept factored
# because accuracy near clustered roots (f5's double root) depends on it.
# A product of two complex values names both factors or has its temporary on
# the left, so elision never swaps them (see the module docstring).  `_fdf*`
# bodies compute the transcendentals f and f' share once, with the same
# expressions as the separate bodies.

def _f1(z):
    return (z * z - 1) * (z * z + 1)


def _df1(z):
    return 4 * z * z * z


def _d2f1(z):
    return 12 * z * z


def _f2(z):
    return z * z * z - 1


def _df2(z):
    return 3 * z * z


def _d2f2(z):
    return 6 * z


def _f3(z):
    z2 = z * z
    z4 = z2 * z2
    z8 = z4 * z4
    return z8 * z4 - 1


def _df3(z):
    z2 = z * z
    z4 = z2 * z2
    z8 = z4 * z4
    return 12 * z8 * z2 * z


def _d2f3(z):
    z2 = z * z
    z4 = z2 * z2
    z8 = z4 * z4
    return 132 * z8 * z2


def _f4(z):
    return (z * z - 4) * (z + 1.5) * (z - 0.5)


def _df4(z):
    return (2 * z * (z + 1.5) * (z - 0.5)
            + (z * z - 4) * (z - 0.5)
            + (z * z - 4) * (z + 1.5))


def _d2f4(z):
    return 12 * z * z + 6 * z - 9.5


def _f5(z):
    return (z + 2) * (z + 1.5) ** 2 * (z - 0.5) * (z - 2)


def _df5(z):
    a, b, c, d = z + 2, z + 1.5, z - 0.5, z - 2
    return b * b * c * d + 2 * a * b * c * d + a * b * b * d + a * b * b * c


def _d2f5(z):
    return 20 * z ** 3 + 30 * z * z - 19.5 * z - 22.25


def _f6(z):
    return np.sin(z)


def _df6(z):
    return np.cos(z)


def _d2f6(z):
    return -np.sin(z)


def _f7(z):
    return (z - 1) ** 3 + 4 * (z - 1) ** 2 - 10


def _df7(z):
    return 3 * (z - 1) ** 2 + 8 * (z - 1)


def _d2f7(z):
    return 6 * (z - 1) + 8


def _f8(z):
    return np.sin(z - 1.4) ** 2 - (z - 1.4) ** 2 + 1


def _fdf8(z):
    w = z - 1.4
    s = np.sin(w)
    return s ** 2 - w ** 2 + 1, 2 * s * np.cos(w) - 2 * w


def _d2f8(z):
    return 2 * np.cos(2 * (z - 1.4)) - 2


def _f9(z):
    return z * z - np.exp(z) - 3 * z + 2


def _fdf9(z):
    e = np.exp(z)
    return z * z - e - 3 * z + 2, 2 * z - e - 3


def _d2f9(z):
    return 2 - np.exp(z)


def _f10(z):
    return np.cos(z - 0.75) - z + 0.75


def _df10(z):
    return -np.sin(z - 0.75) - 1


def _d2f10(z):
    return -np.cos(z - 0.75)


def _f11(z):
    return (z + 1) ** 3 - 1


def _df11(z):
    return 3 * (z + 1) ** 2


def _d2f11(z):
    return 6 * (z + 1)


def _f12(z):
    return (z - 2) ** 3 - 10


def _df12(z):
    return 3 * (z - 2) ** 2


def _d2f12(z):
    return 6 * (z - 2)


def _f13(z):
    u = z + 1.25
    e = np.exp(u * u)
    return u * e - np.sin(u) ** 2 + 3 * np.cos(u) + 5


def _fdf13(z):
    # each shared array is dropped once spent, so that a sweep chunk holds
    # about as many arrays at a time as the separate f and f' bodies did
    u = z + 1.25
    e = np.exp(u * u)
    ue = u * e
    g = 1 + 2 * u * u
    eg = e * g
    del e, g
    s = np.sin(u)
    c = np.cos(u)
    del u
    f = ue - s ** 2 + 3 * c + 5
    del ue
    return f, eg - 2 * s * c - 3 * s


def _d2f13(z):
    u = z + 1.25
    return np.exp(u * u) * (4 * u ** 3 + 6 * u) - 2 * np.cos(2 * u) - 3 * np.cos(u)


def _f14(z):
    # continuous extension: the limit of z + z^2 sin(2/z) at 0 is 0
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        return np.where(z == 0, 0.0, z + z * z * np.sin(2.0 / z))


def _fdf14(z):
    # the derivative has no limit at 0; returning 0 there trips the guard
    z = np.asarray(z, dtype=np.complex128)
    with np.errstate(all="ignore"):
        w = 2.0 / z
        s = np.sin(w)
        zero = z == 0
        return (np.where(zero, 0.0, z + z * z * s),
                np.where(zero, 0.0, 1 + 2 * z * s - 2 * np.cos(w)))


_S3 = 0.8660254037844386  # sqrt(3)/2 rounded to double

_PROBLEM_LIST = [
    ScalarProblem(
        "f1", _f1, _df1, _d2f1,
        (1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j),
        "(x^2 - 1)(x^2 + 1)"),
    ScalarProblem(
        "f2", _f2, _df2, _d2f2,
        (1.0 + 0.0j, complex(-0.5, _S3), complex(-0.5, -_S3)),
        "x^3 - 1"),
    ScalarProblem(
        "f3", _f3, _df3, _d2f3,
        (1.0 + 0.0j, complex(_S3, 0.5), complex(0.5, _S3), 1.0j,
         complex(-0.5, _S3), complex(-_S3, 0.5), -1.0 + 0.0j,
         complex(-_S3, -0.5), complex(-0.5, -_S3), -1.0j,
         complex(0.5, -_S3), complex(_S3, -0.5)),
        "x^12 - 1"),
    ScalarProblem(
        "f4", _f4, _df4, _d2f4,
        (2.0 + 0.0j, -2.0 + 0.0j, -1.5 + 0.0j, 0.5 + 0.0j),
        "(x^2 - 4)(x + 1.5)(x - 0.5)"),
    ScalarProblem(
        "f5", _f5, _df5, _d2f5,
        (-2.0 + 0.0j, -1.5 + 0.0j, 0.5 + 0.0j, 2.0 + 0.0j),
        "(x + 2)(x + 1.5)^2(x - 0.5)(x - 2)"),
    ScalarProblem(
        "f6", _f6, _df6, _d2f6,
        (0.0 + 0.0j, complex(np.pi, 0.0), complex(-np.pi, 0.0)),
        "sin(x)"),
    ScalarProblem(
        "f7", _f7, _df7, _d2f7,
        (2.365230013414097 + 0.0j,
         complex(-1.6826150067070484, 0.358259359924043),
         complex(-1.6826150067070484, -0.358259359924043)),
        "(x - 1)^3 + 4(x - 1)^2 - 10"),
    ScalarProblem(
        "f8", _f8, lambda z: _fdf8(z)[1], _d2f8,
        (2.804491648215341 + 0.0j, -0.004491648215341226 + 0.0j),
        "sin(x - 1.4)^2 - (x - 1.4)^2 + 1", _fdf8),
    ScalarProblem(
        "f9", _f9, lambda z: _fdf9(z)[1], _d2f9,
        (0.2575302854398608 + 0.0j,),
        "x^2 - e^x - 3x + 2", _fdf9),
    ScalarProblem(
        "f10", _f10, _df10, _d2f10,
        (1.4890851332151607 + 0.0j,),
        "cos(x - 0.75) - x + 0.75"),
    ScalarProblem(
        "f11", _f11, _df11, _d2f11,
        (0.0 + 0.0j, complex(-1.5, _S3), complex(-1.5, -_S3)),
        "(x + 1)^3 - 1"),
    ScalarProblem(
        "f12", _f12, _df12, _d2f12,
        (4.154434690031883 + 0.0j,
         complex(0.9227826549840581, 1.865795172362064),
         complex(0.9227826549840581, -1.865795172362064)),
        "(x - 2)^3 - 10"),
    ScalarProblem(
        "f13", _f13, lambda z: _fdf13(z)[1], _d2f13,
        (-2.457647827130919 + 0.0j,),
        "(x + 1.25)e^((x + 1.25)^2) - sin(x + 1.25)^2 + 3cos(x + 1.25) + 5",
        _fdf13),
    ScalarProblem(
        "f14", _f14, lambda z: _fdf14(z)[1], None,
        (0.0 + 0.0j,),
        "x + x^2 sin(2/x)", _fdf14),
]

PROBLEMS = {p.id: p for p in _PROBLEM_LIST}


def list_problems() -> list:
    """The fourteen registered test functions, in id order."""
    return list(_PROBLEM_LIST)


def get_problem(pid: str) -> ScalarProblem:
    try:
        return PROBLEMS[pid]
    except KeyError:
        raise UnknownProblem(f"unknown function id {pid!r}; have f1..f14") from None


def make_affine_problem(a: complex = 1.0, b: complex = -1.0) -> ScalarProblem:
    """f(x) = a*x + b with a != 0; one Newton step solves it exactly."""
    a = complex(a)
    b = complex(b)
    if a == 0:
        raise ValueError("slope must be nonzero")
    root = -b / a

    def ev(z):
        return a * z + b

    def dv(z):
        return a + 0 * z

    def d2(z):
        return 0 * z

    return ScalarProblem("affine", ev, dv, d2, (root,), "a*x + b")
