"""Property tests of `estimate_order` on synthetic traces.

A trace whose displacements follow e_{k+1} = C * e_k**q has every ratio
log(e_{k+1}/e_k) / log(e_k/e_{k-1}) equal to q, so the estimate must
recover q, and be valid once the trace has MIN_ORDER_ITERATIONS steps.
And on any trace, a valid estimate has a positive order: validity asks for
a contracting tail, and an order is only meaningful there.  Nor does any
trace make the estimate raise or report a q that is not finite, whatever
the size of its displacements.
"""

import cmath
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from betanewton.convergence import MIN_ORDER_ITERATIONS, estimate_order  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# the smallest displacement stays above this log, far from subnormals
_LOG_FLOOR = -600.0


def _trace(displacements, direction):
    """Points approaching 0 along `direction`, one displacement per step.

    Point k is the sum of the displacements after step k, so every point is
    about the size of the next displacement and the differences of the
    points give the displacements back to a few ulp.
    """
    tail = [0.0]
    for e in reversed(displacements):
        tail.append(tail[-1] + e)
    return [direction * s for s in reversed(tail)]


@st.composite
def order_traces(draw):
    """(q, trace) with e_{k+1} = C * e_k**q for q in [1, 4] and 8 to 12 steps.

    The first displacement e_1 and the first log ratio rho < 0 fix
    C = exp(rho) / e_1**(q - 1).  Log ratios grow by q each step, so rho
    is scaled to keep the last displacement above exp(_LOG_FLOOR) times e_1.
    """
    q = draw(st.floats(1.0, 4.0))
    steps = draw(st.integers(MIN_ORDER_ITERATIONS, 12))
    e1 = draw(st.floats(1e-2, 1e2))
    total = sum(q ** j for j in range(steps - 1))
    rho = -draw(st.floats(0.01, 1.0)) * min(5.0, -_LOG_FLOOR / total)
    c = math.exp(rho) / e1 ** (q - 1)
    e = [e1]
    for _ in range(steps - 1):
        e.append(c * e[-1] ** q)
    direction = cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
    return q, _trace(e, direction)


@PROPERTY
@given(order_traces())
def test_recovers_the_order_of_a_synthetic_trace(case):
    q, trace = case
    est = estimate_order(trace, epsilon=0.0)
    assert est.valid
    assert len(est.q_series) == len(trace) - 3
    assert all(abs(qk - q) <= 1e-6 for qk in est.q_series), est.q_series
    assert est.q_final == est.q_series[-1]


# powers of two from 1 down to 2**-30, repeats included
_POWERS = st.integers(0, 30).map(lambda a: 2.0 ** -a)


@st.composite
def wandering_displacements(draw):
    """Displacements that grow, shrink and stall in any order, then often
    end in a strictly shrinking run, the tail a valid estimate needs."""
    wander = draw(st.lists(_POWERS, min_size=MIN_ORDER_ITERATIONS - 3, max_size=12))
    tail = draw(st.lists(_POWERS, max_size=4, unique=True))
    return wander + sorted(tail, reverse=True)


@PROPERTY
@given(wandering_displacements(), st.complex_numbers(max_magnitude=10.0),
       st.floats(-math.pi, math.pi), st.sampled_from([0.0, 1e-14, 1e-9]))
def test_a_valid_order_is_positive(displacements, start, angle, epsilon):
    direction = cmath.exp(1j * angle)
    trace = [start]
    for e in displacements:
        trace.append(trace[-1] + direction * e)
    est = estimate_order(trace, epsilon)
    if est.valid:
        assert est.q_final > 0, (est, trace)


# finite doubles of every magnitude, subnormals and both signs included, so
# that displacements and their ratios can underflow to 0 and overflow to inf
_ANY_DOUBLE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)))


@PROPERTY
@example([1e300, 0.0, 1e-30, 1.1e-30, 1.11e-30], 0.0)
@example([0.0, 1e308, -1e308, 0.0], 1e-14)
@given(st.lists(_ANY_DOUBLE, min_size=2, max_size=14), st.sampled_from([0.0, 1e-14]))
def test_every_order_is_finite(trace, epsilon):
    est = estimate_order(trace, epsilon)
    assert all(math.isfinite(q) for q in est.q_series), est
