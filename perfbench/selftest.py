"""Fast self-test of the benchmark on tiny inputs (about half a minute).

    python3 perfbench/selftest.py

For every workload it makes one untraced and two traced runs on tiny inputs
and checks that each run is correct, that every end-to-end and per-layer
metric named in BENCHMARK.json is emitted with its unit, and that the exact
counts repeat between the two traced runs.  It is not a pytest module, so
the test suite never collects it.
"""

from __future__ import annotations

import sys

import run
import workloads


def main() -> int:
    spec = run.load_spec()
    errors = []
    for name in workloads.WORKLOADS:
        for trace in (False, True, True):
            result, detail = run.run(name, workloads.DEFAULT_SEED, 0.1, trace, tiny=True)
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{name} trace={int(trace)}"
            if got != want:
                errors.append(f"{tag}: missing {sorted(set(want) - set(got))}, "
                              f"unexpected {sorted(set(got) - set(want))}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{tag}: not correct: {detail.get('problems')} {detail.get('broken')}")
            print(f"{tag}: {result['attempted']} runs, {len(got)} metrics", flush=True)
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
