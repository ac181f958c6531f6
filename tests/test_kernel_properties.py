"""Property test: a sweep cell's bits do not depend on the array length.

numpy elides temporaries of at least 16,384 complex elements, so a kernel
run over a longer array takes other inner loops than a short one.  A run
over any short slice of starts must still give each start the status,
iteration count and final bits it gets inside a 128x129 grid run.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
import numpy as np  # noqa: E402

from betanewton.basin import _starts, _sweep_chunk  # noqa: E402
from betanewton.core import BetaSchedule, IterationConfig, list_problems  # noqa: E402

LONG = _starts(np.linspace(-2.0, 2.0, 128), np.linspace(-2.0, 2.0, 129))
assert LONG.size > 16_384

SCHEDULES = {
    "0": BetaSchedule.fixed(0.0),
    "1": BetaSchedule.fixed(1.0),
    "anneal": BetaSchedule.annealing(),
}

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=12)


@pytest.mark.parametrize("desc", SCHEDULES)
@pytest.mark.parametrize("p", list_problems(), ids=lambda p: p.id)
def test_slice_run_equals_the_same_cells_of_a_long_run(p, desc):
    sched = SCHEDULES[desc]
    cfg = IterationConfig()
    status, iters, final = _sweep_chunk(p, LONG, sched, cfg)

    @PROPERTY
    @given(st.integers(0, LONG.size - 1), st.integers(1, 16))
    def check(start, length):
        cells = slice(start, start + length)
        got = _sweep_chunk(p, LONG[cells], sched, cfg)
        assert got[0].tobytes() == status[cells].tobytes()
        assert got[1].tobytes() == iters[cells].tobytes()
        assert got[2].tobytes() == final[cells].tobytes()

    check()
