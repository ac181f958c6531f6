"""Property test: a streamed sweep equals a whole-grid labelling.

`sweep` labels each chunk of rows as it finishes, carrying one root catalog
from chunk to chunk.  On random small grids, with the chunk height drawn too
so that a few cells span many chunks, it must give the same labels, counts
and catalog for one and two workers, and the same as running the kernel over
the whole grid at once and labelling that in one call.  Fixed examples of
the functions that find hundreds of roots at beta 1 check the same on grids
large enough for the claim order and the shrinking set of unclaimed
endpoints to matter.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
import numpy as np  # noqa: E402

from betanewton import basin  # noqa: E402
from betanewton.basin import (  # noqa: E402
    _ROOT_RESIDUAL_TOL,
    _ST_CONVERGED,
    GridSpec,
    RootCatalog,
    _starts,
    _sweep_chunk,
    sweep,
)
from betanewton.core import (  # noqa: E402
    BetaSchedule,
    IterationConfig,
    get_problem,
    list_problems,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=4)


def whole_grid_labels(p, status, final, catalog):
    """The labelling that sweep ran once over the whole grid before chunks
    were labelled as they finished; the residual is taken by numpy's abs, as
    in the package, so that an overflowing one rejects the endpoint."""
    n = final.size
    labels = np.full(n, -1, np.int32)
    conv = status == _ST_CONVERGED
    if not conv.any():
        return labels
    tol = catalog.match_tol
    pts = final[conv]
    lab = np.full(pts.size, -1, np.int32)
    dmin = np.full(pts.size, np.inf)
    for k, r in enumerate(catalog.roots):
        d = np.abs(pts - r)
        closer = d < dmin
        dmin[closer] = d[closer]
        lab[closer] = k
    lab[dmin > tol] = -1
    conv_idx = np.flatnonzero(conv)
    un = np.flatnonzero(lab == -1)
    with np.errstate(all="ignore"):
        while un.size:
            cand = complex(pts[un[0]])
            near_existing = any(abs(cand - r) <= 2 * tol for r in catalog.roots)
            residual = np.abs(np.complex128(p.eval(np.complex128(cand))))
            if near_existing or not residual < _ROOT_RESIDUAL_TOL:
                un = un[1:]
                continue
            catalog.roots.append(cand)
            k = len(catalog.roots) - 1
            hit = np.abs(pts[un] - cand) <= tol
            lab[un[hit]] = k
            un = un[~hit]
    labels[conv_idx] = lab
    return labels


grids = st.builds(
    lambda x0, w, y0, h, nx, ny: GridSpec(x0, x0 + w, y0, y0 + h, nx, ny),
    st.floats(-3.0, 2.0), st.floats(0.01, 3.0),
    st.floats(-3.0, 2.0), st.floats(0.01, 3.0),
    st.integers(1, 12), st.integers(1, 8))


@pytest.mark.parametrize("p", list_problems(), ids=lambda p: p.id)
def test_streamed_sweep_equals_whole_grid_labelling(p, monkeypatch):
    cfg = IterationConfig()

    @PROPERTY
    @given(grids, st.integers(1, 4), st.floats(-1.5, 1.5))
    def check(grid, chunk_rows, beta):
        monkeypatch.setattr(basin, "_CHUNK_ROWS", chunk_rows)
        for sched in (BetaSchedule.annealing(), BetaSchedule.fixed(beta)):
            status, iters, final = _sweep_chunk(
                p, _starts(grid.re_coords(), grid.im_coords()), sched, cfg)
            catalog = RootCatalog(list(p.known_roots), 1e-6)
            labels = whole_grid_labels(p, status, final, catalog)
            for jobs in (1, 2):
                bmap = sweep(p, grid, sched, cfg, jobs)
                assert bmap.labels.tobytes() == labels.tobytes()
                assert bmap.iter_counts.tolist() == iters.reshape(grid.nx, grid.ny).tolist()
                assert bmap.catalog.roots == catalog.roots

    check()


@pytest.mark.parametrize("grid", [GridSpec(nx=200, ny=200), GridSpec(nx=300, ny=170)],
                         ids=lambda g: f"{g.nx}x{g.ny}")
@pytest.mark.parametrize("fid", ["f6", "f10", "f14"])
def test_many_roots_stream_like_the_whole_grid(fid, grid, monkeypatch):
    p = get_problem(fid)
    sched, cfg = BetaSchedule.fixed(1.0), IterationConfig()
    status, iters, final = _sweep_chunk(
        p, _starts(grid.re_coords(), grid.im_coords()), sched, cfg)
    catalog = RootCatalog(list(p.known_roots), 1e-6)
    labels = whole_grid_labels(p, status, final, catalog)
    for chunk_rows, jobs in ((64, 2), (7, 1)):
        monkeypatch.setattr(basin, "_CHUNK_ROWS", chunk_rows)
        bmap = sweep(p, grid, sched, cfg, jobs)
        assert bmap.labels.tobytes() == labels.tobytes(), chunk_rows
        assert bmap.catalog.roots == catalog.roots, chunk_rows
