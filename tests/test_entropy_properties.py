"""Property test: basin entropy on random label maps.

`basin_entropy` counts tiles one band of `box` rows at a time.  On random
label maps, square and non-square, with box sizes from 1 up, its value must
lie in [0, ln(K+1)], move by at most 1e-12 relative when the outcome classes
(the root labels and divergence) are permuted, and equal bit for bit the
whole-grid count that the banded one replaced, kept here as the reference.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
import numpy as np  # noqa: E402

from betanewton.basin import BasinMap, GridSpec, RootCatalog, basin_entropy  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def whole_grid_entropy(labels, n_roots, box):
    """Mean per-tile Gibbs entropy from one bincount over every tile of the grid."""
    nx, ny = labels.shape
    k = n_roots + 1
    t = (labels + 1).astype(np.int64)
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


def _map(labels, n_roots):
    nx, ny = labels.shape
    return BasinMap(GridSpec(nx=nx, ny=ny), labels, np.zeros(labels.shape, np.uint8),
                    RootCatalog([complex(r, 0) for r in range(n_roots)]), 50)


@PROPERTY
@given(box=st.integers(1, 6), tiles_x=st.integers(1, 5), tiles_y=st.integers(1, 5),
       n_roots=st.integers(0, 8), classes=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
@example(box=1, tiles_x=7, tiles_y=7, n_roots=3, classes=4, seed=0)
@example(box=1, tiles_x=3, tiles_y=8, n_roots=5, classes=6, seed=1)
@example(box=4, tiles_x=5, tiles_y=2, n_roots=8, classes=9, seed=2)
def test_entropy_bounds_permutation_and_reference(box, tiles_x, tiles_y, n_roots, classes, seed):
    rng = np.random.default_rng(seed)
    # labels -1 .. used - 2: some maps use few of the K+1 classes, so tiles vary
    used = min(classes, n_roots + 1)
    labels = rng.integers(-1, used - 1, (tiles_x * box, tiles_y * box)).astype(np.int32)
    s = basin_entropy(_map(labels, n_roots), box)

    # rounding may put a uniform tile's sum an ulp or so above ln(K+1)
    assert 0.0 <= s <= math.log(n_roots + 1) + 1e-12

    perm = rng.permutation(n_roots + 1) - 1
    permuted = perm[labels + 1].astype(np.int32)
    p = basin_entropy(_map(permuted, n_roots), box)
    assert abs(p - s) <= 1e-12 * s

    assert s == whole_grid_entropy(labels, n_roots, box)
