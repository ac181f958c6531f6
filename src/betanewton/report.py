"""Benchmark tables over the registered functions.

Two layouts: a five-beta fixed sweep (iterations / convergence / relative
time per beta) and a three-mode comparison (beta 0, beta 1, annealing) that
adds the empirical convergence order.

Relative time is a mode's mean time per converged point over beta = 0's:
the exact ratio of the sweeps' mean iteration counts times a timed ratio of
step costs.  One pass per function times scalar `iterate` runs on about 256
converged cells per sweep, interleaved cell by cell across the modes with
the mode order rotating, so the machine's speed phases fall on all modes
alike and cancel in the ratio.  It is the one column that varies across
machines and repetitions; everything else is deterministic.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import basin
from .basin import BasinMap, GridSpec
from .convergence import order_probe
from .core import BetaSchedule, IterationConfig, ScalarProblem, list_problems

TABLE1_BETAS: Tuple[Tuple[str, float], ...] = (
    ("-1", -1.0), ("-0.5", -0.5), ("0", 0.0), ("0.5", 0.5), ("1", 1.0))

TABLE2_MODES: Tuple[Tuple[str, BetaSchedule], ...] = (
    ("0", BetaSchedule.fixed(0.0)),
    ("1", BetaSchedule.fixed(1.0)),
    ("anneal", BetaSchedule.annealing()),
)

# display precision per metric (markdown output)
_FORMATS = {
    "iterations": "{:.1f}",
    "convergence_pct": "{:.0f}",
    "rel_time": "{:.2f}",
    "order": "{:.2f}",
}


@dataclass
class TableRow:
    """One function's metrics, keyed by (metric, beta descriptor)."""

    function_id: str
    columns: Dict[Tuple[str, str], Optional[float]] = field(default_factory=dict)


def relative_times(
    p: ScalarProblem,
    runs: Dict[str, Tuple[BetaSchedule, BasinMap]],
    cfg: IterationConfig,
) -> Dict[str, float]:
    """Per-point time of each run of p over that of its "0" run (beta = 0).

    runs maps a beta descriptor to the schedule and basin map of one sweep.
    Time per point is the map's mean iteration count times the seconds per
    step that one interleaved pass over all runs measures.
    """
    secs = basin._time_per_point(p, list(runs.values()), cfg)
    times = {desc: bmap.mean_iterations * s for (desc, (_, bmap)), s in zip(runs.items(), secs)}
    base = times["0"]
    return {desc: t / base if base else float("nan") for desc, t in times.items()}


def _build(
    modes: Sequence[Tuple[str, BetaSchedule]],
    grid: GridSpec,
    cfg: IterationConfig,
    jobs: int,
    problems: Sequence[ScalarProblem],
) -> List[TableRow]:
    """Iterations, convergence and relative time of each problem in each mode."""
    rows = []
    for p in problems:
        runs = {desc: (sched, basin.sweep(p, grid, sched, cfg, jobs)) for desc, sched in modes}
        rel = relative_times(p, runs, cfg)
        row = TableRow(p.id)
        for desc, (_, bmap) in runs.items():
            row.columns[("iterations", desc)] = bmap.mean_iterations
            row.columns[("convergence_pct", desc)] = bmap.convergence_pct
            row.columns[("rel_time", desc)] = rel[desc]
        rows.append(row)
    return rows


def build_table1(
    grid: GridSpec = GridSpec(),
    cfg: IterationConfig = IterationConfig(),
    jobs: int = 1,
    problems: Optional[Sequence[ScalarProblem]] = None,
) -> List[TableRow]:
    """Fixed-beta sweep table over beta in {-1, -0.5, 0, 0.5, 1}."""
    modes = [(desc, BetaSchedule.fixed(beta)) for desc, beta in TABLE1_BETAS]
    return _build(modes, grid, cfg, jobs, problems if problems is not None else list_problems())


def build_table2(
    grid: GridSpec = GridSpec(),
    cfg: IterationConfig = IterationConfig(),
    jobs: int = 1,
    problems: Optional[Sequence[ScalarProblem]] = None,
) -> List[TableRow]:
    """Three-mode table (beta 0, beta 1, annealing) with convergence orders."""
    problems = problems if problems is not None else list_problems()
    rows = _build(TABLE2_MODES, grid, cfg, jobs, problems)
    for p, row in zip(problems, rows):
        for desc, sched in TABLE2_MODES:
            hit = order_probe(p, sched, cfg, grid.re_coords(), grid.im_coords())
            row.columns[("order", desc)] = hit[0].q_final if hit else None
    return rows


def order_estimate_for(
    p: ScalarProblem,
    sched: BetaSchedule,
    grid: GridSpec = GridSpec(),
    cfg: IterationConfig = IterationConfig(),
):
    """First qualifying order estimate for one function and schedule.

    Returns (OrderEstimate, start_point, IterationOutcome) or None.
    """
    return order_probe(p, sched, cfg, grid.re_coords(), grid.im_coords())


def to_csv(rows: Sequence[TableRow]) -> str:
    """Long-format CSV; values are repr(float), exact under float(), or empty for None."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["function", "metric", "beta", "value"])
    for row in rows:
        for (metric, desc), value in row.columns.items():
            w.writerow([row.function_id, metric, desc,
                        "" if value is None else repr(float(value))])
    return buf.getvalue()


def to_json(rows: Sequence[TableRow]) -> str:
    """Full-precision JSON; column keys flattened to 'metric:beta'."""
    out = []
    for row in rows:
        cols = {f"{metric}:{desc}": value
                for (metric, desc), value in row.columns.items()}
        out.append({"function": row.function_id, "columns": cols})
    return json.dumps(out, indent=2)


def to_markdown(rows: Sequence[TableRow]) -> str:
    """Aligned table with per-metric display rounding."""
    if not rows:
        return ""
    keys = list(rows[0].columns.keys())
    headers = ["function"] + [f"{m} b={d}" for m, d in keys]
    body = []
    for row in rows:
        cells = [row.function_id]
        for key in keys:
            value = row.columns.get(key)
            if value is None or value != value:
                cells.append("-")
            else:
                cells.append(_FORMATS.get(key[0], "{:.3g}").format(value))
        body.append(cells)
    widths = [max(len(h), *(len(b[i]) for b in body)) for i, h in enumerate(headers)]
    lines = ["| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |",
             "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    for cells in body:
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |")
    return "\n".join(lines) + "\n"
