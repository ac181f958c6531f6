"""Unit tests for grid sweeps, root cataloging, entropy, and rendering."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from betanewton import basin
from betanewton.basin import (
    BasinMap,
    GridSpec,
    IncompatibleCovering,
    RootCatalog,
    _sweep_chunk,
    basin_entropy,
    basin_map_to_json,
    default_palette,
    render_ppm,
    sweep,
)
from betanewton.core import (
    BetaSchedule,
    IterationConfig,
    IterationOutcome,
    Status,
    get_problem,
    iterate,
)
from betanewton.report import relative_times
from conftest import affine_problem


def _manual_map(labels, iters, n_roots, max_iter=50):
    labels = np.asarray(labels, np.int32)
    nx, ny = labels.shape
    grid = GridSpec(nx=nx, ny=ny)
    roots = [complex(k, 0) for k in range(n_roots)]
    return BasinMap(grid, labels, np.asarray(iters, np.int32),
                    RootCatalog(roots), max_iter)


# ---------------------------------------------------------------------------
# grid

def test_grid_coordinates_include_endpoints():
    g = GridSpec(re_min=0.0, re_max=1.0, im_min=0.0, im_max=2.0, nx=3, ny=5)
    assert np.array_equal(g.re_coords(), [0.0, 0.5, 1.0])
    assert np.array_equal(g.im_coords(), [0.0, 0.5, 1.0, 1.5, 2.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(re_min=1.0, re_max=-1.0)
    with pytest.raises(ValueError):
        GridSpec(nx=0)


# ---------------------------------------------------------------------------
# sweep

def test_affine_sweep_every_cell_two_steps():
    p = affine_problem(1.0, -1.0)
    grid = GridSpec(nx=40, ny=40)
    bmap = sweep(p, grid, BetaSchedule.fixed(0.5), IterationConfig())
    assert bmap.convergence_pct == 100.0
    # step one lands on the root; step two confirms with a sub-epsilon move
    assert bmap.mean_iterations == 2.0
    assert bmap.labels.shape == (40, 40)
    assert bmap.catalog.roots == [1.0 + 0.0j]
    assert (bmap.labels == 0).all()
    assert basin_entropy(bmap, 20) == 0.0


def test_sweep_independent_of_worker_count():
    p = get_problem("f6")
    grid = GridSpec(nx=120, ny=56)
    maps = [sweep(p, grid, BetaSchedule.annealing(), IterationConfig(), jobs=jobs)
            for jobs in (1, 2, 8)]
    base = maps[0]
    for bmap in maps[1:]:
        assert np.array_equal(bmap.labels, base.labels)
        assert np.array_equal(bmap.iter_counts, base.iter_counts)
        assert bmap.catalog.roots == base.catalog.roots


def test_kernel_matches_scalar_iteration():
    # numpy's SIMD complex multiply contracts with FMA and the scalar one
    # does not, so finals get an ulp-level budget; statuses and counts match
    cfg = IterationConfig()
    for fid, sched in [("f2", BetaSchedule.annealing()),
                       ("f2", BetaSchedule.fixed(0.5)),
                       ("f14", BetaSchedule.fixed(-1.0))]:
        p = get_problem(fid)
        g = GridSpec(nx=5, ny=5)
        z0 = (g.re_coords()[:, None] + 1j * g.im_coords()[None, :]).ravel()
        status, iters, final = _sweep_chunk(p, z0, sched, cfg)
        code = {Status.CONVERGED: 0, Status.NUMERICAL_FAILURE: 1,
                Status.MAX_ITERATIONS: 2}
        for k in range(z0.size):
            out = iterate(p, z0[k], sched, cfg)
            assert code[out.status] == status[k], (fid, z0[k])
            assert out.iterations == iters[k], (fid, z0[k])
            assert abs(out.final - complex(final[k])) <= 1e-13 * max(
                1.0, abs(out.final)), (fid, z0[k])


def test_catalog_growth_is_clean():
    p = get_problem("f6")
    bmap = sweep(p, GridSpec(nx=65, ny=65), BetaSchedule.fixed(0.0), IterationConfig())
    roots = bmap.catalog.roots
    assert roots[:3] == list(p.known_roots)
    assert len(roots) > 3  # big Newton jumps near cos = 0 reach far multiples of pi
    for r in roots:
        assert abs(np.complex128(p.eval(np.complex128(r)))) < 1e-10
        assert abs(r.real / math.pi - round(r.real / math.pi)) < 1e-9
        assert abs(r.imag) < 1e-9
    arr = np.asarray(roots)
    dist = np.abs(arr[:, None] - arr[None, :])
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 2 * bmap.catalog.match_tol
    assert bmap.labels.min() >= -1
    assert bmap.labels.max() < len(roots)


def test_overflowing_residual_rejects_the_endpoint():
    # one cell converges near 98 + 356j, where each part of f13 is about
    # 1.7e308: the residual's modulus overflows, so the endpoint is no root
    grid = GridSpec(1.3761467889908259, 1.3771467889908259,
                    -0.029498525073746285, -0.028498525073746285, 2, 2)
    bmap = sweep(get_problem("f13"), grid, BetaSchedule.fixed(1.0))
    assert bmap.iter_counts[0, 0] < bmap.max_iter
    assert (bmap.labels == -1).all()
    assert len(bmap.catalog.roots) == len(get_problem("f13").known_roots)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_memory_bound(jobs):
    # the bound of the sweep docstring, on ten chunks of the functions whose
    # kernel uses the most memory per cell
    grid = GridSpec(nx=10 * basin._CHUNK_ROWS, ny=50)
    chunk_cells = basin._CHUNK_ROWS * grid.ny
    for fid in ("f13", "f14"):
        tracemalloc.start()
        try:
            bmap = sweep(get_problem(fid), grid, BetaSchedule.annealing(), IterationConfig(), jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bmap.iter_counts.dtype == np.uint8
        cells = grid.nx * grid.ny
        assert peak <= cells * (4 + 1) + (jobs + 1) * chunk_cells * 256, fid


def test_conjugate_symmetric_functions_give_mirror_basins():
    # dyadic 65x65 grid: coordinates and their negations are exact, so the
    # whole trajectory of the mirrored cell is the complex conjugate
    grid = GridSpec(nx=65, ny=65)
    im = grid.im_coords()
    assert np.array_equal(im, -im[::-1])
    for fid in ("f2", "f4", "f6", "f9"):
        p = get_problem(fid)
        bmap = sweep(p, grid, BetaSchedule.annealing(), IterationConfig())
        roots = np.asarray(bmap.catalog.roots)
        perm = np.array([int(np.argmin(np.abs(roots - np.conj(r))))
                         for r in roots])
        assert (np.abs(roots[perm] - np.conj(roots)) < 1e-9).all()
        flipped = bmap.labels[:, ::-1]
        mapped = np.where(flipped >= 0, perm[np.maximum(flipped, 0)], -1)
        assert np.array_equal(mapped, bmap.labels), fid
        assert np.array_equal(bmap.iter_counts, bmap.iter_counts[:, ::-1]), fid


def test_rotation_symmetry_of_cubic_basins():
    # x^3 - 1 commutes with 120-degree rotation; the rotation factor is not
    # exactly representable, so allow a small budget of boundary flips
    p = get_problem("f2")
    roots = np.asarray(p.known_roots)
    omega = complex(-0.5, math.sqrt(3.0) / 2.0)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 2, 400) + 1j * rng.uniform(-2, 2, 400)

    def label(z):
        out = iterate(p, z, BetaSchedule.fixed(0.5))
        if out.status is not Status.CONVERGED:
            return -1
        d = np.abs(roots - out.final)
        return int(d.argmin()) if d.min() < 1e-6 else -1

    perm = np.array([int(np.argmin(np.abs(roots - omega * r))) for r in roots])
    both = 0
    agree = 0
    for z in pts:
        a, b = label(z), label(omega * z)
        if a >= 0 and b >= 0:
            both += 1
            agree += b == perm[a]
    assert both > 300
    assert agree / both >= 0.98


# ---------------------------------------------------------------------------
# entropy

def test_entropy_zero_for_single_basin():
    bmap = _manual_map(np.zeros((40, 40)), np.zeros((40, 40)), 1)
    assert basin_entropy(bmap, 20) == 0.0


def test_entropy_uniform_three_way_split():
    labels = np.fromfunction(lambda i, j: j % 3, (60, 60)).astype(np.int32)
    bmap = _manual_map(labels, np.zeros((60, 60)), 3)
    assert abs(basin_entropy(bmap, 3) - math.log(3)) < 1e-10


def test_entropy_bounds_and_divergent_class():
    rng = np.random.default_rng(3)
    labels = rng.integers(-1, 3, (40, 40))
    bmap = _manual_map(labels, np.zeros((40, 40)), 3)
    s = basin_entropy(bmap, 10)
    assert 0.0 <= s <= math.log(4) + 1e-12


def test_entropy_invariant_under_relabeling():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 3, (40, 40))
    perm = {0: 2, 1: 0, 2: 1}
    relabeled = np.vectorize(perm.get)(labels)
    a = basin_entropy(_manual_map(labels, np.zeros((40, 40)), 3), 10)
    b = basin_entropy(_manual_map(relabeled, np.zeros((40, 40)), 3), 10)
    assert abs(a - b) < 1e-12


@pytest.mark.parametrize("box", [1, 4, 10])
def test_entropy_memory_bound(box):
    # banded counting: two int64 copies of one band of box rows, a few float
    # arrays of (ny / box) * (K+1) counts and one float per tile, whatever nx
    nx, ny, n_roots = 4000, 120, 40
    labels = np.random.default_rng(5).integers(-1, n_roots, (nx, ny))
    bmap = _manual_map(labels, np.zeros((nx, ny)), n_roots)
    tracemalloc.start()
    try:
        basin_entropy(bmap, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tiles_per_band = ny // box
    bound = (2 * 8 * box * ny + 8 * 8 * tiles_per_band * (n_roots + 1)
             + 8 * (nx // box) * tiles_per_band + 64 * 1024)
    assert peak <= bound, (peak, bound)


def test_entropy_rejects_incompatible_covering():
    bmap = _manual_map(np.zeros((60, 60)), np.zeros((60, 60)), 1)
    for box in (7, 0, 61):
        with pytest.raises(IncompatibleCovering):
            basin_entropy(bmap, box)
    bmap = _manual_map(np.zeros((60, 40)), np.zeros((60, 40)), 1)
    with pytest.raises(IncompatibleCovering):
        basin_entropy(bmap, 40)  # divides ny but not nx


def test_map_metrics_skip_unlabelled_cells():
    bmap = _manual_map([[0, -1], [1, 0]], [[2, 50], [4, 6]], 2)
    assert bmap.mean_iterations == 4.0
    assert bmap.convergence_pct == 75.0
    bmap = _manual_map(np.full((2, 2), -1), np.ones((2, 2)), 1)
    assert math.isnan(bmap.mean_iterations)
    assert bmap.convergence_pct == 0.0


def test_time_per_point_interleaves_runs(monkeypatch):
    # one 2x3 grid (re -2, 2; im -2, 0, 2) with 6, 4 and 0 converged cells
    maps = [_manual_map(lab, np.ones((2, 3)), 1)
            for lab in ([[0, 0, 0], [0, 0, 0]], [[0, -1, 0], [-1, 0, 0]], np.full((2, 3), -1))]
    scheds = [BetaSchedule.fixed(0.0), BetaSchedule.fixed(1.0), BetaSchedule.annealing()]
    calls = []

    def fake_iterate(p, z0, sched, cfg):
        calls.append((scheds.index(sched), z0))
        return IterationOutcome(Status.CONVERGED, z0, 3)

    monkeypatch.setattr(basin, "iterate", fake_iterate)
    times = basin._time_per_point(get_problem("f2"), list(zip(scheds, maps)), IterationConfig())
    a = [complex(re, im) for re in (-2, 2) for im in (-2, 0, 2)]
    b = [a[0], a[2], a[4], a[5]]
    # cell i visits the runs from run i mod 3 on; the empty run is skipped
    assert calls == [(0, a[0]), (1, b[0]), (1, b[1]), (0, a[1]), (0, a[2]), (1, b[2]),
                     (0, a[3]), (1, b[3]), (0, a[4]), (0, a[5])]
    assert times[0] >= 0 and times[1] >= 0 and math.isnan(times[2])


def test_relative_time_is_iteration_ratio_times_step_cost(monkeypatch):
    # a fake clock charges each run a fixed cost per step, and the timed runs
    # report step counts unlike their maps' means: the estimate must take
    # the iteration ratio from the maps and the step cost from the clock
    maps = {"0": _manual_map([[0, 0], [0, -1]], [[4, 4], [4, 50]], 1),
            "1": _manual_map([[0, 0], [0, 0]], [[1, 2], [3, 2]], 1),
            "anneal": _manual_map([[0, -1], [-1, -1]], [[8, 1], [1, 1]], 1)}
    cost = {"0": 1.0, "1": 3.0, "anneal": 0.5}
    steps = {"0": 7, "1": 5, "anneal": 2}
    scheds = {"0": BetaSchedule.fixed(0.0), "1": BetaSchedule.fixed(1.0),
              "anneal": BetaSchedule.annealing()}
    desc_of = {sched: desc for desc, sched in scheds.items()}
    clock = [0.0]

    def fake_iterate(p, z0, sched, cfg):
        desc = desc_of[sched]
        clock[0] += cost[desc] * steps[desc]
        return IterationOutcome(Status.CONVERGED, z0, steps[desc])

    monkeypatch.setattr(basin, "iterate", fake_iterate)
    monkeypatch.setattr(basin, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    runs = {desc: (scheds[desc], bmap) for desc, bmap in maps.items()}
    rel = relative_times(get_problem("f2"), runs, IterationConfig())
    assert [maps[d].mean_iterations for d in maps] == [4.0, 2.0, 8.0]
    assert rel == {d: maps[d].mean_iterations * cost[d] / (maps["0"].mean_iterations * cost["0"])
                   for d in maps}
    assert rel == {"0": 1.0, "1": 1.5, "anneal": 1.0}


# ---------------------------------------------------------------------------
# rendering

def test_render_ppm_exact_bytes(monkeypatch):
    bmap = _manual_map([[0, 1], [-1, 0]], [[0, 25], [3, 50]], 2, max_iter=50)
    palette = [(255, 0, 0), (0, 255, 0), (40, 40, 40)]
    monkeypatch.setattr(basin, "default_palette", lambda n: palette)
    data = render_ppm(bmap)
    header = b"P6\n2 2\n255\n"
    # top scanline is the largest imaginary part; divergent stays full bright
    pixels = bytes([0, 159, 0, 64, 0, 0,
                    255, 0, 0, 40, 40, 40])
    assert data == header + pixels
    assert render_ppm(bmap) == data


def test_default_palette_has_divergent_entry():
    pal = default_palette(5)
    assert len(pal) == 6
    assert pal[-1] == (40, 40, 40)
    assert len(set(pal)) == 6


def test_basin_map_json_round_structure():
    bmap = _manual_map([[0, 1], [-1, 0]], [[1, 2], [3, 4]], 2)
    d = basin_map_to_json(bmap)
    assert d["grid"]["nx"] == 2 and d["grid"]["ny"] == 2
    assert d["labels"] == [0, 1, -1, 0]
    assert d["iter_counts"] == [1, 2, 3, 4]
    assert d["roots"] == [[0.0, 0.0], [1.0, 0.0]]
    assert d["max_iter"] == 50
