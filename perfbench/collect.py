"""Repeat the benchmark over seeds, record reference outputs, extend the trajectory.

    python3 perfbench/collect.py spread --workloads all --seeds 1-10
    python3 perfbench/collect.py spread --workloads all --seeds 1-10 --trajectory LABEL
    python3 perfbench/collect.py reference

`spread` runs run.py once per workload and seed, exactly as a harness would,
and prints per end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median of the runs, next to the metric's bound.  With
--trajectory it also makes one traced run per workload at the default seed
and appends the whole summary as a point to trajectory.json.

`reference` re-records reference/<workload>.json from the current sources at
the default seed.  Do it only when an output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads

TRAJECTORY = run.HERE / "trajectory.json"


def bench(name: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=400)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["perfbench_detail"], elapsed


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(args) -> int:
    spec = run.load_spec()
    names = list(workloads.WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    seconds = args.seconds or spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    ok = True
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        results = []
        for seed in summary["seeds"]:
            result, detail, elapsed = bench(name, seed, seconds, 0)
            results.append({"seed": seed, "elapsed_s": elapsed, "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"],
                            "loadavg": [detail["env"]["loadavg_start"], detail["env"]["loadavg_end"]]})
            for k, v in result["metrics"].items():
                values[k].append(v["value"])
            print(f"{name} seed {seed}: {elapsed:.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                  + ("" if result["correct"] else " INCORRECT"), flush=True)
            ok &= result["correct"]
        stats = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            stats[m["name"]] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                "n": len(vals), "spread": (q3 - q1) / statistics.median(vals),
                                "bound": m["bound"]}
            s = stats[m["name"]]
            flag = "" if s["spread"] < m["bound"] / 3 or m["name"] == "setup_s" else "  <-- above bound/3"
            print(f"  {name:12s} {m['name']:12s} median {s['median']:.4g} "
                  f"spread {s['spread']:.3f} (bound {m['bound']}){flag}", flush=True)
        summary["workloads"][name] = {"end_to_end": stats, "runs": results}
    if args.trajectory:
        env = None
        for name in names:
            result, detail, _ = bench(name, workloads.DEFAULT_SEED, seconds, 1)
            env = detail["env"]
            summary["workloads"][name]["per_layer"] = {
                "seed": workloads.DEFAULT_SEED, "correct": result["correct"],
                "values": {k: v["value"] for k, v in result["metrics"].items()},
                "missing": detail["missing"]}
        point = {"label": args.trajectory, "commit": env["commit"], "src_sha256": env["src_sha256"],
                 "env": env, **summary}
        points = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        points.append(point)
        TRAJECTORY.write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")
    out = run.RUNS_DIR / f"spread-{int(time.time())}.json"
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print("summary written to", out.relative_to(run.ROOT))
    return 0 if ok else 1


def reference(args) -> int:
    run.RUNS_DIR.mkdir(exist_ok=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    commit = run.environment()["commit"]
    for name, wl in workloads.WORKLOADS.items():
        inp = workloads.inputs(name, workloads.DEFAULT_SEED)
        out = run.RUNS_DIR / f"reference-{name}"
        err = run.RUNS_DIR / f"reference-{name}.err"
        _, _, _, code = run._spawn(run._entry_cmd(wl, workloads.argv(name, inp, str(out))), err)
        if code != 0:
            raise RuntimeError(f"{name} exited {code}: {run._tail(err)}")
        data = out.read_bytes()
        out.unlink()
        problems, _ = workloads.check(name, inp, data, None)
        if problems:
            raise RuntimeError(f"{name} output breaks an invariant: {problems}")
        record = {"workload": name, "seed": workloads.DEFAULT_SEED, "inputs": inp,
                  "commit": commit, **workloads.summarize(name, inp, data)}
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print("recorded", path.relative_to(run.ROOT))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workloads", default="all")
    sp.add_argument("--seeds", default="1-10")
    sp.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    sp.add_argument("--trajectory", metavar="LABEL")
    sp.set_defaults(func=spread)
    sp = sub.add_parser("reference")
    sp.set_defaults(func=reference)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
