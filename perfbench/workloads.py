"""The benchmark's four workloads: their inputs, commands and output checks.

Inputs come from the workload seed alone.  DEFAULT_SEED gives the pinned
inputs; any other seed draws inputs of the same shape: for the grid
workloads a grid whose sides are a few percent off the pinned side with the
cell count held within 0.5%, for kuramoto other system seeds.

An output check returns the list of problems found (empty when the output is
correct) and whether the output is bit-identical to the reference recorded
at DEFAULT_SEED (None when there is no reference for the inputs).  A
mismatch with the reference inside the tolerances below is not a failure.
"""

from __future__ import annotations

import colorsys
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

DEFAULT_SEED = 0
JOBS = 2
MAX_ITER = 50  # the CLI default the workloads run with

# tolerances against the reference outputs (absolute)
TOL_ITERATIONS = 0.01
TOL_CONVERGENCE_PCT = 0.01
TOL_ORDER = 0.05
TOL_ENTROPY = 1e-3
TOL_PIXELS_MOVED = 0.001  # share of pixels whose colour may differ
TOL_PHASES = 1e-8
KURAMOTO_RESIDUAL_MAX = 1e-10

KURAMOTO_SIZES = (300, 600, 1200)
FUNCTIONS = tuple(f"f{k}" for k in range(1, 15))
TABLE2_MODES = ("0", "1", "anneal")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str  # module whose main(argv) runs the workload


WORKLOADS = {w.name: w for w in (
    Workload("tables", "three-mode table2 over f1..f14 on a 200x200 grid: the scalar "
             "iterate path (subsample and order probe) does most of the work",
             "betanewton.cli"),
    Workload("basin-poly", "entropy beta sweep of the cubic f2, 9 sweeps of 1000x1000: "
             "kernel arithmetic, compaction, labelling and subsample, no order probe",
             "betanewton.cli"),
    Workload("basin-trans", "annealing fractal of the transcendental f13 on 1000x1000: "
             "the sweep kernel is bound by exp, sin and cos evaluation",
             "betanewton.cli"),
    Workload("kuramoto", "seeded Kuramoto systems, N 300/600/1200, through the library "
             "solver: the only workload that uses multivariate (LU, residual, Jacobian)",
             "kuramoto_driver"),
)}


def _grid(seed: int, side: int, multiple: int = 1) -> Tuple[int, int]:
    """Grid sides for a seed: the pinned square at DEFAULT_SEED."""
    if seed == DEFAULT_SEED:
        return side, side
    rng = random.Random(f"perfbench-grid-{seed}")
    nx = multiple * round(side * rng.uniform(0.97, 1.03) / multiple)
    ny = multiple * round(side * side / nx / multiple)
    return nx, ny


def inputs(name: str, seed: int, tiny: bool = False) -> dict:
    """The workload's inputs for a seed; tiny gives a seconds-long variant."""
    if name == "tables":
        nx, ny = (10, 10) if tiny else _grid(seed, 200)
        return {"grid": (nx, ny)}
    if name == "basin-poly":
        nx, ny = (40, 40) if tiny else _grid(seed, 1000, 20)
        return {"grid": (nx, ny), "box": 20, "betas": "-1:1:1" if tiny else "-1:1:0.25"}
    if name == "basin-trans":
        nx, ny = (40, 40) if tiny else _grid(seed, 1000)
        return {"grid": (nx, ny)}
    if name == "kuramoto":
        return {"seed": seed, "sizes": list(KURAMOTO_SIZES), "systems": 1 if tiny else 2,
                "schedules": ["0"] if tiny else ["0", "1", "anneal"]}
    raise KeyError(name)


def argv(name: str, inp: dict, out: str) -> List[str]:
    """Arguments for the workload's entry main()."""
    if name == "kuramoto":
        return ["--seed", str(inp["seed"]), "--sizes", ",".join(map(str, inp["sizes"])),
                "--systems", str(inp["systems"]), "--schedules", ",".join(inp["schedules"]),
                "--out", out]
    grid = "{}x{}".format(*inp["grid"])
    jobs = ["--jobs", str(JOBS)]
    if name == "tables":
        return ["table2", "--grid", grid, *jobs, "--format", "csv", "--out", out]
    if name == "basin-poly":
        return ["entropy", "--function", "f2", "--beta-sweep", inp["betas"], "--grid", grid,
                "--box", str(inp["box"]), *jobs, "--out", out]
    if name == "basin-trans":
        return ["fractal", "--function", "f13", "--schedule", "anneal", "--grid", grid,
                *jobs, "--out", out]
    raise KeyError(name)


def is_pinned(name: str, inp: dict) -> bool:
    """True when inp are the DEFAULT_SEED inputs the reference was recorded for."""
    return inp == inputs(name, DEFAULT_SEED)


def load_reference(name: str) -> Optional[dict]:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


# -- summaries: the deterministic content of an output ----------------------

def _table_rows(data: bytes) -> List[List[str]]:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or rows[0] != ["function", "metric", "beta", "value"]:
        raise ValueError("table2 CSV header missing")
    return rows[1:]


def _palette(n: int):
    """The CLI's default palette: golden-angle hues plus a divergent grey."""
    pal = []
    for k in range(n):
        h = (0.12 + 0.61803398875 * k) % 1.0
        r, g, b = colorsys.hsv_to_rgb(h, 0.85, 1.0)
        pal.append((int(round(255 * r)), int(round(255 * g)), int(round(255 * b))))
    return pal


_DIVERGENT = (40, 40, 40)
_MAX_HUES = 256  # f13 finds about 50 roots on the pinned grid


def _allowed_colours() -> np.ndarray:
    """Every colour a labelled cell can take: hue j < _MAX_HUES at 1..MAX_ITER steps."""
    pal = np.asarray(_palette(_MAX_HUES), dtype=np.float64)
    cnt = np.arange(1, MAX_ITER + 1)
    bright = 1.0 - 0.75 * np.minimum(cnt, MAX_ITER) / MAX_ITER
    rgb = np.rint(pal[:, None, :] * bright[None, :, None]).astype(np.uint8).reshape(-1, 3)
    codes = _rgb_codes(rgb)
    return np.union1d(codes, _rgb_codes(np.asarray([_DIVERGENT], dtype=np.uint8)))


def _rgb_codes(rgb: np.ndarray) -> np.ndarray:
    rgb = rgb.astype(np.int64)
    return (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]


def _ppm_pixels(data: bytes, nx: int, ny: int) -> np.ndarray:
    header = f"P6\n{nx} {ny}\n255\n".encode("ascii")
    if not data.startswith(header):
        raise ValueError("PPM header does not match the grid")
    body = data[len(header):]
    if len(body) != 3 * nx * ny:
        raise ValueError(f"PPM body has {len(body)} bytes, expected {3 * nx * ny}")
    return np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)


def summarize(name: str, inp: dict, data: bytes) -> dict:
    """The reference record of one output: what check() compares against."""
    if name == "tables":
        return {"rows": [[f, m, b, None if m == "rel_time" else v]
                         for f, m, b, v in _table_rows(data)]}
    if name == "basin-poly":
        return {"csv": data.decode("utf-8")}
    if name == "basin-trans":
        codes = _rgb_codes(_ppm_pixels(data, *inp["grid"]))
        values, counts = np.unique(codes, return_counts=True)
        return {"sha256": hashlib.sha256(data).hexdigest(),
                "colour_counts": {f"{int(v):06x}": int(c) for v, c in zip(values, counts)}}
    if name == "kuramoto":
        return {"runs": json.loads(data)["runs"]}
    raise KeyError(name)


def out_bytes(name: str, data: bytes) -> int:
    """Output size; table2's rel_time digits vary run to run and are left out."""
    if name != "tables":
        return len(data)
    total = 0
    for line in data.decode("utf-8").splitlines(keepends=True):
        if ",rel_time," in line:
            line = line.rsplit(",", 1)[0] + ",\n"
        total += len(line.encode("utf-8"))
    return total


# -- checks -------------------------------------------------------------------

def check(name: str, inp: dict, data: bytes, ref: Optional[dict]) -> Tuple[List[str], Optional[bool]]:
    """Problems in one output and its bit-exactness against ref (None: no ref)."""
    try:
        return {"tables": _check_tables, "basin-poly": _check_entropy,
                "basin-trans": _check_fractal, "kuramoto": _check_kuramoto}[name](inp, data, ref)
    except (ValueError, KeyError, TypeError, IndexError, UnicodeDecodeError) as exc:
        return [f"unreadable output: {exc!r}"], (False if ref is not None else None)


def _close(a: Optional[float], b: Optional[float], tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol


def _check_tables(inp, data, ref):
    rows = _table_rows(data)
    problems = []
    expected = [(f, m, b) for f in FUNCTIONS
                for m in ("iterations", "convergence_pct", "rel_time", "order")
                for b in TABLE2_MODES]
    got = [tuple(r[:3]) for r in rows]
    if sorted(got) != sorted(expected) or any(len(r) != 4 for r in rows):
        return [f"table2 has {len(rows)} rows, not the 14x4x3 expected"], (False if ref else None)
    for f, m, b, v in rows:
        x = None if v == "" else float(v)
        where = f"{f} {m} b={b}"
        if m == "rel_time" and not (x is not None and math.isfinite(x) and x > 0):
            problems.append(f"{where}: rel_time {v!r} is not finite and positive")
        elif m == "convergence_pct" and not (x is not None and 0 <= x <= 100):
            problems.append(f"{where}: {v!r} outside [0, 100]")
        elif m == "iterations" and x is not None and not math.isnan(x) and not 1 <= x <= MAX_ITER:
            problems.append(f"{where}: {v!r} outside [1, {MAX_ITER}]")
        elif m == "order" and x is not None and not (math.isfinite(x) and x > 0):
            problems.append(f"{where}: order {v!r} is not finite and positive")
    if ref is None:
        return problems, None
    tol = {"iterations": TOL_ITERATIONS, "convergence_pct": TOL_CONVERGENCE_PCT,
           "order": TOL_ORDER}
    mine = {(f, m, b): v for f, m, b, v in rows}
    exact = True
    for f, m, b, v in ref["rows"]:
        if m == "rel_time":
            continue
        have = mine[(f, m, b)]
        exact &= have == v
        if not _close(None if have == "" else float(have), None if v == "" else float(v), tol[m]):
            problems.append(f"{f} {m} b={b}: {have!r} differs from reference {v!r}")
    return problems, exact


def _check_entropy(inp, data, ref):
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    problems = []
    lo, hi, step = (float(t) for t in inp["betas"].split(":"))
    betas = [lo + k * step for k in range(int(round((hi - lo) / step)) + 1)]
    if rows[0] != ["beta", "entropy"] or [float(r[0]) for r in rows[1:]] != betas:
        return ["entropy CSV does not list the requested betas"], (False if ref else None)
    # f2 has three roots, so the map has at most four outcome classes
    top = math.log(4)
    for beta, s in rows[1:]:
        if not 0.0 <= float(s) <= top:
            problems.append(f"entropy {s} at beta {beta} outside [0, ln 4]")
    if ref is None:
        return problems, None
    ref_rows = list(csv.reader(io.StringIO(ref["csv"])))
    for (beta, s), (_, r) in zip(rows[1:], ref_rows[1:]):
        if not _close(float(s), float(r), TOL_ENTROPY):
            problems.append(f"entropy {s} at beta {beta} differs from reference {r}")
    return problems, data.decode("utf-8") == ref["csv"]


def _check_fractal(inp, data, ref):
    codes = _rgb_codes(_ppm_pixels(data, *inp["grid"]))
    problems = []
    bad = int((~np.isin(codes, _allowed_colours())).sum())
    if bad:
        problems.append(f"{bad} pixels are not a root colour at 1..{MAX_ITER} steps "
                        "or the divergent grey")
    if ref is None:
        return problems, None
    if hashlib.sha256(data).hexdigest() == ref["sha256"]:
        return problems, True
    values, counts = np.unique(codes, return_counts=True)
    mine = {f"{int(v):06x}": int(c) for v, c in zip(values, counts)}
    theirs = ref["colour_counts"]
    moved = sum(abs(mine.get(k, 0) - theirs.get(k, 0)) for k in set(mine) | set(theirs)) / 2
    if moved > TOL_PIXELS_MOVED * codes.size:
        problems.append(f"{moved:.0f} pixels changed colour against the reference")
    return problems, False


def _check_kuramoto(inp, data, ref):
    runs = json.loads(data)["runs"]
    problems = []
    want = len(inp["sizes"]) * inp["systems"] * len(inp["schedules"])
    if len(runs) != want:
        return [f"{len(runs)} solves reported, expected {want}"], (False if ref else None)
    for r in runs:
        where = f"N={r['n']} system {r['system_seed']} b={r['schedule']}"
        if r["status"] != "converged":
            problems.append(f"{where}: status {r['status']}")
        if not r["residual_norm"] < KURAMOTO_RESIDUAL_MAX:
            problems.append(f"{where}: residual {r['residual_norm']!r}")
        if r["phases_len"] != r["n"] or r["phase0"] != 0.0:
            problems.append(f"{where}: phase vector breaks the phi_0 = 0 gauge")
    if ref is None:
        return problems, None
    exact = True
    for r, q in zip(runs, ref["runs"]):
        where = f"N={r['n']} system {r['system_seed']} b={r['schedule']}"
        exact &= r == q
        if (r["status"], r["iterations"]) != (q["status"], q["iterations"]):
            problems.append(f"{where}: status/iterations differ from reference")
        close = (_close(r["phases_sum"], q["phases_sum"], TOL_PHASES * r["n"])
                 and _close(r["phases_l2"], q["phases_l2"], TOL_PHASES * r["n"])
                 and all(_close(a, b, TOL_PHASES) for a, b in zip(r["phases_head"], q["phases_head"])))
        if not close:
            problems.append(f"{where}: phases differ from reference")
    return problems, exact
