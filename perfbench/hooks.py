"""Tracing hooks for the benchmark's in-process traced run.

`Tracer.install()` wraps calls into the betanewton layers (cli, core, basin,
convergence, report, multivariate) by rebinding module attributes and the
registry problems' f and f'.  Spans are kept in memory and written out when
the run ends; `Tracer.uninstall()` puts every original back.  No file under
src/ changes.

Every hook tolerates the absence of its target: a name that a later refactor
removes is recorded in `Tracer.missing`, and the metrics that depend on it
are reported as missing while the run continues.  Counters and the span list
are guarded by one lock, so the hooks are safe under the sweep thread pool.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from workloads import KURAMOTO_SIZES


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    thread: int
    t0: float
    t1: float
    attrs: Optional[dict]

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


# counts that must repeat bit for bit between traced runs of one commit
EXACT_METRICS = (
    "cli.out_bytes",
    "core.evals.f",
    "core.evals.fprime",
    "core.iterate.calls",
    "core.iterate.steps",
    "basin.kernel.cell_steps",
    "basin.subsample.runs",
    "convergence.order_probe.runs",
    "multivariate.steps",
)

def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "betanewton" or name.startswith("betanewton."))]


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[tuple] = []
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[key] += n

    def spanned(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(args, result) -> attrs."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                attrs = after(args, result) if after is not None and result is not None else None
                with tracer._lock:
                    tracer.spans.append(Span(sid, parent, name, threading.get_ident(), t0, t1, attrs))

        return wrapper

    # -- installing ------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        old = getattr(owner, attr)
        object.__setattr__(owner, attr, new)
        self._undo.append((owner, attr, old))

    def _hook(self, qualname: str, make, everywhere: bool = False) -> None:
        """Replace module.attr by make(original); everywhere also rebinds re-exports."""
        modname, attr = qualname.rsplit(".", 1)
        module = sys.modules.get(modname)
        orig = getattr(module, attr, None) if module is not None else None
        if orig is None:
            self.missing.append(qualname)
            return
        new = make(orig)
        owners = _package_modules() if everywhere else [module]
        for m in owners:
            for name, value in list(vars(m).items()):
                if value is orig:
                    self._rebind(m, name, new)

    def install(self) -> None:
        import betanewton  # noqa: F401  (loads every layer module)

        self._hook("betanewton.report.build_table1",
                   lambda f: self.spanned("report.build_table1", f), everywhere=True)
        self._hook("betanewton.report.build_table2",
                   lambda f: self.spanned("report.build_table2", f), everywhere=True)
        self._hook("betanewton.basin.sweep",
                   lambda f: self.spanned("basin.sweep", f), everywhere=True)
        self._hook("betanewton.basin._sweep_chunk", self._chunk_hook)
        self._hook("betanewton.basin._assign_labels",
                   lambda f: self.spanned("basin._assign_labels", f))
        self._hook("betanewton.basin._time_per_point",
                   lambda f: self.spanned("basin._time_per_point", f))
        self._hook("betanewton.basin.basin_entropy",
                   lambda f: self.spanned("basin.basin_entropy", f), everywhere=True)
        self._hook("betanewton.basin.render_ppm",
                   lambda f: self.spanned("basin.render_ppm", f), everywhere=True)
        self._hook("betanewton.convergence.order_probe",
                   lambda f: self.spanned("convergence.order_probe", f), everywhere=True)
        # iterate is counted per binding, so the caller's layer is known
        for modname in ("basin", "convergence", "core"):
            tag = modname
            self._hook(f"betanewton.{modname}.iterate",
                       lambda f, tag=tag: self._iterate_hook(f, tag))
        self._hook("betanewton.multivariate.solve_sync",
                   lambda f: self.spanned(
                       "multivariate.solve_sync", f,
                       after=lambda args, sol: {"n": int(np.size(sol.phases)),
                                                "iterations": int(sol.iterations)}),
                   everywhere=True)
        self._hook("betanewton.multivariate._factor",
                   lambda f: self.spanned("multivariate._factor", f))
        self._hook("betanewton.multivariate.build_kuramoto_problem",
                   self._problem_hook, everywhere=True)
        self._hook_registry()

    def _chunk_hook(self, fn):
        def after(args, result):
            cell_steps = int(np.asarray(result[1], dtype=np.int64).sum())
            self.add("kernel.cell_steps", cell_steps)
            return None
        return self.spanned("basin._sweep_chunk", fn, after=after)

    def _iterate_hook(self, fn, tag):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            with tracer._lock:
                tracer.counts[f"iterate.calls.{tag}"] += 1
                tracer.counts["iterate.steps"] += int(out.iterations)
                tracer.seconds["iterate"] += dt
            return out

        return wrapper

    def _problem_hook(self, fn):
        def build(*args, **kwargs):
            vp = fn(*args, **kwargs)
            return dataclasses.replace(
                vp,
                residual=self.spanned("multivariate.residual", vp.residual),
                jacobian=self.spanned("multivariate.jacobian", vp.jacobian))
        return build

    def _hook_registry(self) -> None:
        core = sys.modules.get("betanewton.core")
        list_problems = getattr(core, "list_problems", None)
        if list_problems is None:
            self.missing.append("betanewton.core.list_problems")
            return
        for p in list_problems():
            for attr, key in (("eval", "evals.f"), ("deriv", "evals.fprime")):
                self._rebind(p, attr, self._counted(getattr(p, attr), key))

    def _counted(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(z):
            n = getattr(z, "size", 1)
            with tracer._lock:
                tracer.counts[key] += n
            return fn(z)

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            object.__setattr__(owner, attr, old)

    # -- reporting -------------------------------------------------------

    def dump(self) -> dict:
        base = min((s.t0 for s in self.spans), default=0.0)
        return {
            "spans": [[s.id, s.parent, s.name, s.thread, round(s.t0 - base, 7),
                       round(s.t1 - base, 7), s.attrs] for s in self.spans],
            "counts": dict(self.counts),
            "seconds": dict(self.seconds),
            "missing": list(self.missing),
        }


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


# per-layer metric -> hook targets it needs
_NEEDS = {
    "core.evals.f": ("betanewton.core.list_problems",),
    "core.evals.fprime": ("betanewton.core.list_problems",),
    "basin.sweep.": ("betanewton.basin.sweep",),
    "basin.kernel.": ("betanewton.basin._sweep_chunk",),
    "basin.label.s": ("betanewton.basin._assign_labels",),
    "basin.subsample.runs": ("betanewton.basin.iterate",),
    "basin.subsample.s": ("betanewton.basin._time_per_point",),
    "basin.entropy.s": ("betanewton.basin.basin_entropy",),
    "basin.render.s": ("betanewton.basin.render_ppm",),
    "convergence.order_probe.runs": ("betanewton.convergence.iterate",),
    "convergence.order_probe.": ("betanewton.convergence.order_probe",),
    "report.self_s": ("betanewton.report.build_table2", "betanewton.basin.sweep",
                      "betanewton.convergence.order_probe"),
    "multivariate.factor.": ("betanewton.multivariate._factor",),
    "multivariate.residual.": ("betanewton.multivariate.build_kuramoto_problem",),
    "multivariate.jacobian.": ("betanewton.multivariate.build_kuramoto_problem",),
    "multivariate.": ("betanewton.multivariate.solve_sync",),
}


def missing_metrics(names, missing_hooks) -> List[str]:
    """Metrics among names whose hook targets were not found."""
    gone = set(missing_hooks)
    out = []
    for name in names:
        needs = next((v for k, v in _NEEDS.items() if name.startswith(k)), ())
        if gone.intersection(needs):
            out.append(name)
    return out


def layer_metrics(tracer: Tracer, jobs: int) -> Dict[str, float]:
    """Per-layer values from the spans and counters of one traced run."""
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def secs(name):
        return sum(s.dur for s in by_name[name])

    c = tracer.counts
    m: Dict[str, float] = {}
    m["core.evals.f"] = c["evals.f"]
    m["core.evals.fprime"] = c["evals.fprime"]
    iterate_calls = sum(v for k, v in c.items() if k.startswith("iterate.calls."))
    m["core.iterate.calls"] = iterate_calls
    m["core.iterate.steps"] = c["iterate.steps"]
    m["core.iterate.us_per_step"] = (
        1e6 * tracer.seconds["iterate"] / c["iterate.steps"] if c["iterate.steps"] else 0.0)

    m["basin.sweep.calls"] = calls("basin.sweep")
    m["basin.sweep.s"] = secs("basin.sweep")
    chunks = by_name["basin._sweep_chunk"]
    busy = secs("basin._sweep_chunk")
    wall = _union_length((s.t0, s.t1) for s in chunks)
    m["basin.kernel.busy_s"] = busy
    m["basin.kernel.wall_s"] = wall
    m["basin.kernel.cell_steps"] = c["kernel.cell_steps"]
    m["basin.kernel.ns_per_cell_step"] = (
        1e9 * busy / c["kernel.cell_steps"] if c["kernel.cell_steps"] else 0.0)
    m["basin.kernel.parallel_eff"] = busy / (jobs * wall) if wall > 0 else 0.0
    m["basin.label.s"] = secs("basin._assign_labels")
    m["basin.subsample.runs"] = c["iterate.calls.basin"]
    m["basin.subsample.s"] = secs("basin._time_per_point")
    m["basin.entropy.s"] = secs("basin.basin_entropy")
    m["basin.render.s"] = secs("basin.render_ppm")

    m["convergence.order_probe.calls"] = calls("convergence.order_probe")
    m["convergence.order_probe.runs"] = c["iterate.calls.convergence"]
    m["convergence.order_probe.s"] = secs("convergence.order_probe")

    # build_table self time: its duration minus its direct child spans
    children = defaultdict(float)
    for s in tracer.spans:
        if s.parent is not None:
            children[s.parent] += s.dur
    tables = by_name["report.build_table1"] + by_name["report.build_table2"]
    m["report.self_s"] = sum(s.dur - children[s.id] for s in tables)

    solves = by_name["multivariate.solve_sync"]
    m["multivariate.steps"] = sum(s.attrs["iterations"] for s in solves if s.attrs)
    for n in KURAMOTO_SIZES:
        mine = [s for s in solves if s.attrs and s.attrs["n"] == n]
        solve_s = sum(s.dur for s in mine)
        steps = sum(s.attrs["iterations"] for s in mine)
        m[f"multivariate.solve_s.n{n}"] = solve_s
        m[f"multivariate.step_ms.n{n}"] = 1e3 * solve_s / steps if steps else 0.0
    for part in ("factor", "residual", "jacobian"):
        name = "multivariate._factor" if part == "factor" else f"multivariate.{part}"
        m[f"multivariate.{part}.calls"] = calls(name)
        m[f"multivariate.{part}.s"] = secs(name)
    return m
