"""betanewton benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload tables --seed 0 --seconds 20 --trace 0

Run from anywhere; the program is imported from src/ next to this directory,
so the checkout needs no install step.  Workloads and their checks live in
workloads.py, metric names and units in BENCHMARK.json at the repo root.

--trace 0 runs the workload in child processes with tracing off, one after
another until --seconds have passed, and reports the medians of wall_s,
cpu_s and peak_rss_mb (from os.wait4) and of setup_s, the wall time of a
child that only imports the workload's entry module.

--trace 1 runs the workload untraced for half of --seconds, then once
in-process with the hooks of hooks.py installed, and reports the per-layer
metrics of that traced run, the import breakdown of `python -X importtime`,
output.bit_exact and trace.overhead_frac.  Spans go to perfbench/_runs/.

Every run's output is checked (workloads.check); the last line of standard
output is the result object {correct, attempted, failed, metrics}, and the
line before it holds the samples, quartiles and the environment record.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = HERE / "_runs"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

import hooks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
TRACE_SETUP_REPS = 3
IMPORTTIME_REPS = 3
CHILD_TIMEOUT_S = 150


def _median_quartiles(values):
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return statistics.median(vals), q1, q3


def _child_env() -> dict:
    env = dict(os.environ)
    extra = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONPATH"] = extra + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(cmd, stderr_path: Path):
    """Run cmd to completion; returns (wall_s, cpu_s, peak_rss_mb, exit code)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def _entry_cmd(wl, args):
    code = f"import sys, {wl.entry} as m; sys.exit(m.main(sys.argv[1:]))"
    return [sys.executable, "-c", code, *args]


def _tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def run_child(wl, inp, ref) -> dict:
    """One untraced run of the workload in a child process, output checked."""
    out = RUNS_DIR / f"out-{wl.name}"
    err = RUNS_DIR / f"err-{wl.name}.txt"
    out.unlink(missing_ok=True)
    wall, cpu, rss, code = _spawn(_entry_cmd(wl, workloads.argv(wl.name, inp, str(out))), err)
    rec = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "exit": code}
    if code != 0 or not out.exists():
        rec["problems"] = [f"exit code {code}: {_tail(err)}"]
        rec["bit_exact"] = None
        return rec
    data = out.read_bytes()
    out.unlink()
    rec["problems"], rec["bit_exact"] = workloads.check(wl.name, inp, data, ref)
    rec["out_bytes"] = workloads.out_bytes(wl.name, data)
    return rec


def setup_times(wl, reps: int) -> list:
    """Wall times of children that import the entry module and exit."""
    cmd = [sys.executable, "-c", f"import {wl.entry}"]
    err = RUNS_DIR / f"err-setup-{wl.name}.txt"
    _spawn(cmd, err)  # warm-up: byte-compiles src/ once per checkout
    times = []
    for _ in range(reps):
        wall, _, _, code = _spawn(cmd, err)
        if code != 0:
            raise RuntimeError(f"importing {wl.entry} failed: {_tail(err)}")
        times.append(wall)
    return times


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_breakdown(wl, reps: int) -> dict:
    """cli.import_s and its numpy and scipy shares, from python -X importtime.

    cli.import_s is the cumulative time of importing the entry module.  A
    library's share is the cumulative time of the imports that enter it
    from outside both libraries, so numpy modules that scipy pulls in count
    for scipy.  The medians over reps children are reported.
    """
    libs = {"cli.import.numpy_s": "numpy", "cli.import.scipy_s": "scipy"}
    entry_top = wl.entry.split(".")[0]
    samples = {k: [] for k in ("cli.import_s", *libs)}
    err = RUNS_DIR / f"importtime-{wl.name}.txt"
    for _ in range(reps):
        cmd = [sys.executable, "-X", "importtime", "-c", f"import {wl.entry}"]
        _, _, _, code = _spawn(cmd, err)
        if code != 0:
            raise RuntimeError(f"importing {wl.entry} failed: {_tail(err)}")
        lines = []
        for line in err.read_text(encoding="utf-8").splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                lines.append((len(m.group(3)) // 2, int(m.group(2)), m.group(4).split(".")[0]))
        # children print before their parent: a line's parent is the next
        # line one level shallower
        ancestors = []
        for i, (depth, _, _) in enumerate(lines):
            tops, d = set(), depth
            for j in range(i + 1, len(lines)):
                if lines[j][0] < d:
                    tops.add(lines[j][2])
                    d = lines[j][0]
            ancestors.append(tops)
        us = sum(cum for (_, cum, top), anc in zip(lines, ancestors)
                 if top == entry_top and entry_top not in anc)
        samples["cli.import_s"].append(us / 1e6)
        for key, lib in libs.items():
            us = sum(cum for (_, cum, top), anc in zip(lines, ancestors)
                     if top == lib and not anc & set(libs.values()))
            samples[key].append(us / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def _import_program():
    for p in (str(HERE), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)
    import betanewton
    if Path(betanewton.__file__).resolve().parent != (SRC / "betanewton").resolve():
        raise RuntimeError(f"betanewton imported from {betanewton.__file__}, not src/")


def run_traced(wl, inp, ref) -> tuple:
    """One in-process run through the same entry point with the hooks installed."""
    _import_program()
    module = importlib.import_module(wl.entry)
    out = RUNS_DIR / f"traced-{wl.name}"
    out.unlink(missing_ok=True)
    tracer = hooks.Tracer()
    tracer.install()
    rec = {"problems": [], "bit_exact": None}
    try:
        t0 = time.perf_counter()
        code = tracer.spanned("cli.main", module.main)(workloads.argv(wl.name, inp, str(out)))
        rec["wall_s"] = time.perf_counter() - t0
    except Exception:  # the run fails; the benchmark still reports
        code = None
        rec["problems"].append(traceback.format_exc(limit=3))
    finally:
        tracer.uninstall()
    rec["exit"] = code
    if code == 0 and out.exists():
        data = out.read_bytes()
        out.unlink()
        rec["problems"], rec["bit_exact"] = workloads.check(wl.name, inp, data, ref)
        rec["out_bytes"] = workloads.out_bytes(wl.name, data)
    elif code is not None:
        rec["problems"].append(f"exit code {code}")
    return rec, tracer


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, read from the library itself."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return found
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "cpu_model": _cpu_model(),
    }


def _exact_self_check(key: str, counts: dict):
    """Compare exact counts with earlier traced runs of the same code and inputs."""
    store = RUNS_DIR / "exact_counts.json"
    seen = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    before = seen.get(key)
    if before is not None:
        diff = {k: (before[k], v) for k, v in counts.items() if k in before and before[k] != v}
        return diff or None
    seen[key] = counts
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)
    return None


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple:
    """Measure one workload; returns (result object, detail record)."""
    wl = workloads.WORKLOADS[name]
    spec = load_spec()
    inp = workloads.inputs(name, seed, tiny)
    ref = workloads.load_reference(name) if not tiny and workloads.is_pinned(name, inp) else None
    RUNS_DIR.mkdir(exist_ok=True)
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "inputs": inp, "env": env}

    setup = setup_times(wl, 1 if tiny else TRACE_SETUP_REPS if trace else SETUP_REPS)
    runs = []
    t_end = time.perf_counter() + (seconds / 2 if trace else seconds)
    while True:
        runs.append(run_child(wl, inp, ref))
        if time.perf_counter() >= t_end:
            break

    samples = {"setup_s": setup}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        samples[key] = [r[key] for r in runs if r["exit"] == 0]
    values = {}
    detail["samples"] = {}
    for key, vals in samples.items():
        if vals:
            med, q1, q3 = _median_quartiles(vals)
            values[key] = med
            detail["samples"][key] = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                                      "values": vals}

    broken = None
    if trace:
        traced, tracer = run_traced(wl, inp, ref)
        runs.append(traced)
        layer = hooks.layer_metrics(tracer, workloads.JOBS)
        layer.update(import_breakdown(wl, 1 if tiny else IMPORTTIME_REPS))
        layer["cli.out_bytes"] = traced.get("out_bytes", 0)
        exact = [r["bit_exact"] for r in runs]
        layer["output.bit_exact"] = -1 if ref is None else int(all(e is True for e in exact))
        if "wall_s" in values and "wall_s" in traced:
            layer["trace.overhead_frac"] = (
                (traced["wall_s"] + values["setup_s"]) / values["wall_s"] - 1.0)
        key = f"{name}|seed={seed}|tiny={tiny}|src={env['src_sha256']}"
        if traced["exit"] == 0:
            broken = _exact_self_check(key, {k: layer[k] for k in hooks.EXACT_METRICS if k in layer})
        detail["missing"] = hooks.missing_metrics(
            [m["name"] for m in spec["per_layer"]], tracer.missing)
        detail["missing_hooks"] = tracer.missing
        for k in detail["missing"]:
            layer.pop(k, None)
        detail["traced_wall_s"] = traced.get("wall_s")
        trace_file = RUNS_DIR / f"trace-{name}-seed{seed}.json"
        trace_file.write_text(json.dumps({"detail": detail, **tracer.dump()}), encoding="utf-8")
        detail["trace_file"] = str(trace_file.relative_to(ROOT))

    failed = sum(1 for r in runs if r["exit"] != 0 or r["problems"])
    if trace:
        layer["failed_frac"] = failed / len(runs)
        values = layer
    detail["problems"] = sorted({p for r in runs for p in r["problems"]})[:20]
    if broken:
        detail["broken"] = {"exact counts changed between traced runs of one commit": broken}
    env["loadavg_end"] = os.getloadavg()

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {"correct": failed == 0 and not broken, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "betanewton" / "__init__.py").is_file():
        print(f"error: no betanewton sources under {SRC}", file=sys.stderr)
        return 2
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"perfbench_detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
