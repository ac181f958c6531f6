"""Complex-plane grid sweeps: basin maps, entropy, and image rendering.

A sweep iterates every cell of a rectangular grid independently with the
two-step update from `betanewton.core`, labels each cell by the root it
reached (or -1 for divergent/failed cells), and aggregates per-grid metrics.
The kernel is vectorized over cells with per-step compaction; cells are
mathematically independent, so results are identical for any worker count.
"""

from __future__ import annotations

import colorsys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

import numpy as np

from .core import (
    ANNEALING,
    BetaSchedule,
    IterationConfig,
    ScalarProblem,
    _update,
    iterate,
)

# fixed chunk height (rows of the real axis) so partitioning never depends
# on the worker count
_CHUNK_ROWS = 64

_ST_CONVERGED = 0
_ST_NUMFAIL = 1
_ST_MAXITER = 2

# a discovered root must actually satisfy the equation
_ROOT_RESIDUAL_TOL = 1e-10

_MAX_BETAS = 1000  # per entropy curve; each costs a sweep, and paper-scale curves use 21


class IncompatibleCovering(ValueError):
    """Entropy box size does not tile the grid exactly."""


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced rectangle of starting points, endpoints included.

    Cell (i, j) maps to re_coords[i] + 1j * im_coords[j].
    """

    re_min: float = -2.0
    re_max: float = 2.0
    im_min: float = -2.0
    im_max: float = 2.0
    nx: int = 1000
    ny: int = 1000

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid bounds must be increasing")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid dims must be positive")

    def re_coords(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    def im_coords(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)


@dataclass
class RootCatalog:
    """Ordered list of distinct roots; endpoints match within match_tol."""

    roots: List[complex] = field(default_factory=list)
    match_tol: float = 1e-6


@dataclass
class BasinMap:
    """Per-cell root label and iteration count over a grid.

    labels[i, j] is an index into catalog.roots, or -1 for cells that failed,
    timed out, or converged to nothing the catalog accepts.  max_iter is the
    iteration budget the sweep ran with (used for image shading); a sweep
    stores iter_counts in the narrowest unsigned type that holds it.
    """

    grid: GridSpec
    labels: np.ndarray
    iter_counts: np.ndarray
    catalog: RootCatalog
    max_iter: int

    @property
    def mean_iterations(self) -> float:
        """Mean iteration count of the cells labelled with a root (nan if none)."""
        converged = self.labels >= 0
        return float(self.iter_counts[converged].mean()) if converged.any() else float("nan")

    @property
    def convergence_pct(self) -> float:
        """Share of the grid's cells labelled with a root, in percent."""
        return 100.0 * int((self.labels >= 0).sum()) / self.labels.size


def _starts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Row-major start points re[i] + 1j*im[j], built without rounding."""
    z = np.empty((re.size, im.size), np.complex128)
    z.real = re[:, None]
    z.imag = im[None, :]
    return z.ravel()


def _sweep_chunk(
    p: ScalarProblem,
    z0: np.ndarray,
    sched: BetaSchedule,
    cfg: IterationConfig,
):
    """Iterate a flat array of starting points; returns (status, iters, final)."""
    n = z0.size
    z = z0.copy()
    alive = np.arange(n)
    final = z0.copy()
    iters = np.zeros(n, np.int32)
    status = np.full(n, _ST_MAXITER, np.int8)
    anneal = sched.mode == ANNEALING
    with np.errstate(all="ignore"):
        for step in range(1, cfg.max_iter + 1):
            ok, znext = _update(p, z, anneal, sched.beta)
            good = ok & np.isfinite(znext.real) & np.isfinite(znext.imag)
            disp = np.abs(znext - z)
            conv = good & (disp < cfg.epsilon)
            fail = ~good
            cont = good & ~conv
            idx = alive[fail]
            final[idx] = z[fail]
            status[idx] = _ST_NUMFAIL
            iters[idx] = step - 1
            idx = alive[conv]
            final[idx] = znext[conv]
            status[idx] = _ST_CONVERGED
            iters[idx] = step
            z = znext[cont]
            alive = alive[cont]
            if alive.size == 0:
                break
        final[alive] = z
        iters[alive] = cfg.max_iter
    return status, iters, final


def _assign_labels(
    p: ScalarProblem,
    status: np.ndarray,
    final: np.ndarray,
    catalog: RootCatalog,
) -> np.ndarray:
    """Label converged endpoints against the catalog, growing it when needed.

    Each endpoint within match_tol of a catalog root takes that root's
    label.  The rest are clustered serially in row-major first-seen order:
    the first founds a new root if it satisfies the residual bound and lies
    more than 2*match_tol from every catalog root, and takes every remaining
    endpoint within match_tol with it.  An endpoint is thus within match_tol
    of at most one root, so labelling a grid chunk by chunk in row-major
    order, with one catalog carried from chunk to chunk, gives the labels
    and catalog of labelling it whole.  Only a distance that rounds to a tie
    at exactly 2*match_tol could tell the two apart.
    """
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
    # discovery pass: first unmatched endpoint (row-major) founds a root or
    # is permanently rejected; repeat until none remain
    un = np.flatnonzero(lab == -1)
    with np.errstate(all="ignore"):
        while un.size:
            cand = complex(pts[un[0]])
            near_existing = any(abs(cand - r) <= 2 * tol for r in catalog.roots)
            # numpy's abs: a residual too large for a float is inf, not an OverflowError
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


# cells timed per map: enough for a steady per-step cost, since the map
# already gives each run's exact iteration count
_TIMING_SAMPLE_TARGET = 256


def _time_per_point(
    p: ScalarProblem,
    runs: Sequence[Tuple[BetaSchedule, BasinMap]],
    cfg: IterationConfig,
) -> List[float]:
    """Wall seconds per iteration step of each (schedule, map) run, timed together.

    Each run times single-cell `iterate` calls on a row-major stride of its
    map's converged cells and divides their seconds by their iterations.
    The runs are interleaved cell by cell, with the run order rotating from
    one cell to the next, so that the machine's speed phases fall on every
    run alike and cancel in their ratios.  A run with no converged cell gets
    nan.  The name, from when it returned seconds per point, is kept for the
    benchmark's tracing hooks, which wrap it by name.
    """
    cfg = replace(cfg, trace=False)
    samples = []
    for sched, bmap in runs:
        conv_idx = np.flatnonzero(bmap.labels.ravel() >= 0)
        stride = max(1, conv_idx.size // _TIMING_SAMPLE_TARGET)
        re, im, ny = bmap.grid.re_coords(), bmap.grid.im_coords(), bmap.grid.ny
        samples.append((sched, [complex(re[flat // ny], im[flat % ny])
                                for flat in conv_idx[::stride]]))
    m = len(samples)
    totals = [0.0] * m
    steps = [0] * m
    for i in range(max((len(z0s) for _, z0s in samples), default=0)):
        for k in ((i + j) % m for j in range(m)):
            sched, z0s = samples[k]
            if i < len(z0s):
                t0 = time.perf_counter()
                out = iterate(p, z0s[i], sched, cfg)
                totals[k] += time.perf_counter() - t0
                steps[k] += out.iterations
    return [t / n if n else float("nan") for t, n in zip(totals, steps)]


def sweep(
    p: ScalarProblem,
    grid: GridSpec = GridSpec(),
    sched: BetaSchedule = BetaSchedule.fixed(0.0),
    cfg: IterationConfig = IterationConfig(),
    jobs: int = 1,
) -> BasinMap:
    """Iterate every grid cell; returns the basin map.

    The grid runs in chunks of _CHUNK_ROWS rows; jobs > 1 runs them on a
    thread pool while this thread labels each finished chunk in row order
    and stores its labels and counts in the map.  Chunk boundaries and all
    per-cell arithmetic are identical for every worker count, and chunked
    labelling equals whole-grid labelling (see `_assign_labels`), so the
    result depends only on the arguments.

    Memory is known before the run: the map holds 4 bytes of label and
    np.min_scalar_type(cfg.max_iter).itemsize bytes of count per cell, and
    at most jobs + 1 chunks of _CHUNK_ROWS * ny cells are in flight at a
    time (jobs in the kernel, one being labelled), each using at most 256
    bytes per cell with the registered functions (220 measured at most),
    plus a constant.
    """
    re = grid.re_coords()
    im = grid.im_coords()
    labels = np.empty((grid.nx, grid.ny), np.int32)
    iter_counts = np.empty((grid.nx, grid.ny), np.min_scalar_type(cfg.max_iter))
    catalog = RootCatalog(list(p.known_roots), 1e-6)
    starts = range(0, grid.nx, _CHUNK_ROWS)

    def run_chunk(i0):
        return _sweep_chunk(p, _starts(re[i0:i0 + _CHUNK_ROWS], im), sched, cfg)

    def store(i0, result):
        status, iters, final = result
        rows = slice(i0, i0 + _CHUNK_ROWS)
        labels[rows] = _assign_labels(p, status, final, catalog).reshape(-1, grid.ny)
        iter_counts[rows] = iters.reshape(-1, grid.ny)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            # one chunk queued beyond the running ones keeps every worker
            # busy while this thread labels
            pending = deque()
            for i0 in starts:
                pending.append((i0, pool.submit(run_chunk, i0)))
                if len(pending) > jobs:
                    i, fut = pending.popleft()
                    store(i, fut.result())
            while pending:
                i, fut = pending.popleft()
                store(i, fut.result())
    else:
        for i0 in starts:
            store(i0, run_chunk(i0))
    return BasinMap(grid=grid, labels=labels, iter_counts=iter_counts,
                    catalog=catalog, max_iter=cfg.max_iter)


def basin_entropy(bmap: BasinMap, box: int = 20) -> float:
    """Mean per-tile Gibbs entropy of outcome labels over box*box tiles.

    Divergence (-1) counts as its own outcome class, so a map with K roots
    has at most K+1 classes and the result lies in [0, ln(K+1)].
    """
    nx, ny = bmap.labels.shape
    if box < 1 or nx % box or ny % box:
        raise IncompatibleCovering(
            f"box {box} does not tile a {nx}x{ny} grid")
    k = len(bmap.catalog.roots) + 1
    t = (bmap.labels + 1).astype(np.int64)
    tiles = (t.reshape(nx // box, box, ny // box, box)
             .transpose(0, 2, 1, 3)
             .reshape(-1, box * box))
    nt = tiles.shape[0]
    offset = (np.arange(nt, dtype=np.int64)[:, None] * k + tiles).ravel()
    counts = np.bincount(offset, minlength=nt * k).reshape(nt, k)
    prob = counts / float(box * box)
    with np.errstate(all="ignore"):
        terms = np.where(prob > 0, -prob * np.log(prob), 0.0)
    return float(terms.sum(axis=1).mean())


def entropy_beta_sweep(
    p: ScalarProblem,
    grid: GridSpec,
    cfg: IterationConfig,
    beta_lo: float,
    beta_hi: float,
    step: float,
    box: int = 20,
    jobs: int = 1,
) -> List[Tuple[float, float]]:
    """Basin entropy at each fixed beta in [beta_lo, beta_hi] by step, at most _MAX_BETAS."""
    if step <= 0:
        raise ValueError("step must be positive")
    if beta_lo > beta_hi:
        raise ValueError("beta_lo must not exceed beta_hi")
    span = (beta_hi - beta_lo) / step
    if not np.isfinite([beta_lo, beta_hi, step, span]).all():
        raise ValueError("beta_lo, beta_hi and step must give a finite number of betas")
    count = int(np.floor(span + 1e-9)) + 1
    if count > _MAX_BETAS:
        raise ValueError(f"the range holds {count} betas; at most {_MAX_BETAS} are allowed")
    curve = []
    for k in range(count):
        beta = beta_lo + k * step
        bmap = sweep(p, grid, BetaSchedule.fixed(beta), cfg, jobs)
        curve.append((beta, basin_entropy(bmap, box)))
    return curve


def default_palette(n: int) -> List[Tuple[int, int, int]]:
    """n root hues spread by the golden angle, plus a dark divergent entry."""
    pal = []
    for k in range(n):
        h = (0.12 + 0.61803398875 * k) % 1.0
        r, g, b = colorsys.hsv_to_rgb(h, 0.85, 1.0)
        pal.append((int(round(255 * r)), int(round(255 * g)), int(round(255 * b))))
    pal.append((40, 40, 40))
    return pal


def render_ppm(bmap: BasinMap) -> bytes:
    """Binary PPM (P6) of the basin map; byte-exact for identical inputs.

    Hue comes from the root label through `default_palette` (its last entry
    is reserved for divergent cells, drawn at full brightness); brightness
    falls linearly from 1.0 at zero iterations to 0.25 at the sweep's
    max_iter.  Pixels are looked up in a uint8 table of each palette colour
    at each count, a block of _CHUNK_ROWS scanlines at a time, so memory
    beyond the 3-byte pixels and the returned bytes is the table and one
    block.
    """
    k = len(bmap.catalog.roots)
    m = bmap.max_iter
    # shade[c, n]: palette colour c after n iterations, the same rounding as
    # shading each pixel; divergent cells take the last colour's n = 0 entry
    bright = 1.0 - 0.75 * np.arange(m + 1) / max(m, 1)
    shade = np.rint(np.asarray(default_palette(k), dtype=np.float64)[:, None, :]
                    * bright[None, :, None]).astype(np.uint8)
    nx, ny = bmap.grid.nx, bmap.grid.ny
    img = np.empty((ny, nx, 3), np.uint8)
    # image row 0 is the top scanline: largest imaginary part
    lab = bmap.labels[:, ::-1].T
    cnt = bmap.iter_counts[:, ::-1].T
    for r in range(0, ny, _CHUNK_ROWS):
        rows = slice(r, r + _CHUNK_ROWS)
        divergent = lab[rows] < 0
        img[rows] = shade[np.where(divergent, k, lab[rows]),
                          np.where(divergent, 0, np.minimum(cnt[rows], m))]
    header = f"P6\n{nx} {ny}\n255\n".encode("ascii")
    return b"".join((header, img))


def basin_map_to_json(bmap: BasinMap) -> dict:
    """Row-major JSON-ready dump of labels, counts, catalog, and grid."""
    g = bmap.grid
    return {
        "grid": {
            "re_min": g.re_min, "re_max": g.re_max,
            "im_min": g.im_min, "im_max": g.im_max,
            "nx": g.nx, "ny": g.ny,
        },
        "max_iter": bmap.max_iter,
        "labels": bmap.labels.ravel().tolist(),
        "iter_counts": bmap.iter_counts.ravel().tolist(),
        "roots": [[r.real, r.imag] for r in bmap.catalog.roots],
        "match_tol": bmap.catalog.match_tol,
    }
