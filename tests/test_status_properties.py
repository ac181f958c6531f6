"""Property test: every start ends in a status, never in an exception.

`iterate` and the sweep kernel `_sweep_chunk` take any complex start,
including ones with inf or nan parts, and return a status.  The scalar
run's evaluation counts meet their closed forms for every status, and a
start with a non-finite part fails at the first step on both paths.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
import numpy as np  # noqa: E402

from betanewton.basin import _ST_CONVERGED, _ST_MAXITER, _ST_NUMFAIL, _sweep_chunk  # noqa: E402
from betanewton.core import BetaSchedule, IterationConfig, Status, iterate, list_problems  # noqa: E402

SCHEDULES = {
    "0": BetaSchedule.fixed(0.0),
    "1": BetaSchedule.fixed(1.0),
    "anneal": BetaSchedule.annealing(),
}

CFG = IterationConfig(max_iter=20)  # short, so that every status occurs often

# a part inside the usual window, a non-finite part, or any double
PART = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([np.inf, -np.inf, np.nan]), st.floats())
STARTS = st.lists(st.builds(complex, PART, PART), min_size=1, max_size=6)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=10)


@pytest.mark.parametrize("desc", SCHEDULES)
@pytest.mark.parametrize("p", list_problems(), ids=lambda p: p.id)
def test_every_start_ends_in_a_status(p, desc):
    sched = SCHEDULES[desc]
    fp_per_step = 2 if desc == "anneal" else 1

    @PROPERTY
    @given(STARTS)
    def check(starts):
        z0 = np.array(starts, np.complex128)
        status, iters, final = _sweep_chunk(p, z0, sched, CFG)
        assert set(status.tolist()) <= {_ST_CONVERGED, _ST_NUMFAIL, _ST_MAXITER}
        assert ((0 <= iters) & (iters <= CFG.max_iter)).all()
        assert (iters[status == _ST_MAXITER] == CFG.max_iter).all()
        for k, start in enumerate(z0):
            out = iterate(p, start, sched, CFG)
            assert out.evals_f == 2 * out.iterations
            assert out.evals_fprime == fp_per_step * out.iterations
            assert 0 <= out.iterations <= CFG.max_iter
            if out.status is Status.MAX_ITERATIONS:
                assert out.iterations == CFG.max_iter
            if not np.isfinite(start):
                assert out.status is Status.NUMERICAL_FAILURE and out.iterations == 0
                assert np.complex128(out.final).tobytes() == start.tobytes()
                assert (status[k], iters[k]) == (_ST_NUMFAIL, 0)
                assert final[k].tobytes() == start.tobytes()

    check()
