"""Kuramoto workload: seeded random systems solved through the public library.

For each N in --sizes and each of --systems seeded systems, solve_sync runs
from the zero phase vector with each of the --schedules (beta = 0, beta = 1,
annealing).  The output JSON holds, per solve, the status, iteration count,
residual norm, omega and a digest and summary of the phase vector.

    PYTHONPATH=src python3 perfbench/kuramoto_driver.py --seed 0 \
        --sizes 300,600,1200 --systems 2 --schedules 0,1,anneal --out k.json

Library calls go through module attributes (`mv.solve_sync`), so the
benchmark's tracing hooks see them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from betanewton import core
from betanewton import multivariate as mv

SCHEDULES = (
    ("0", core.BetaSchedule.fixed(0.0)),
    ("1", core.BetaSchedule.fixed(1.0)),
    ("anneal", core.BetaSchedule.annealing()),
)


def system_seed(seed: int, n: int, k: int) -> int:
    return 1000 * seed + 10 * n + k


def solve_all(seed: int, sizes, systems: int, schedules) -> list:
    runs = []
    for n in sizes:
        for k in range(systems):
            sseed = system_seed(seed, n, k)
            system = mv.random_kuramoto(n, sseed)
            for desc, sched in schedules:
                sol = mv.solve_sync(system, None, sched)
                phases = np.ascontiguousarray(sol.phases, dtype=np.float64)
                runs.append({
                    "n": n,
                    "system_seed": sseed,
                    "schedule": desc,
                    "status": sol.status.value,
                    "iterations": int(sol.iterations),
                    "residual_norm": float(sol.residual_norm),
                    "omega": float(sol.omega),
                    "phases_sha256": hashlib.sha256(phases.tobytes()).hexdigest(),
                    "phases_len": int(phases.size),
                    "phase0": float(phases[0]),
                    "phases_sum": float(phases.sum()),
                    "phases_l2": float(np.sqrt((phases * phases).sum())),
                    "phases_head": [float(v) for v in phases[1:5]],
                })
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sizes", required=True, help="comma-separated rotor counts")
    ap.add_argument("--systems", type=int, required=True, help="seeded systems per size")
    ap.add_argument("--schedules", required=True, help="comma-separated subset of 0,1,anneal")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sizes = [int(t) for t in args.sizes.split(",")]
    wanted = args.schedules.split(",")
    schedules = [(d, s) for d, s in SCHEDULES if d in wanted]
    runs = solve_all(args.seed, sizes, args.systems, schedules)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
