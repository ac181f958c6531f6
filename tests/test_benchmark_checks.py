"""The benchmark's output checks, run on the tiny inputs of every workload.

`perfbench/workloads.py` defines each workload's inputs, arguments and output
check.  Running each workload's entry on its tiny inputs here catches an
output the benchmark would reject, such as a missing table row or a rel_time
that is not finite and positive, before a benchmark run does.  Running them
again under the benchmark's tracing hooks catches a hook whose target was
renamed or deleted.  The tests read `perfbench/` and write nothing there: no
bytecode, and the outputs go to a temporary directory.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tiny_workloads_pass_the_benchmark_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    problems = {}
    for name, wl in workloads.WORKLOADS.items():
        inp = workloads.inputs(name, workloads.DEFAULT_SEED, tiny=True)
        out = tmp_path / f"out-{name}"
        code = importlib.import_module(wl.entry).main(workloads.argv(name, inp, str(out)))
        assert code == 0, name
        # tiny inputs have no recorded reference, so only the sanity checks run
        problems[name], _ = workloads.check(name, inp, out.read_bytes(), None)
    assert problems == {name: [] for name in workloads.WORKLOADS}


def test_tiny_workloads_leave_no_hook_missing(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    hooks = importlib.import_module("hooks")
    for name, wl in workloads.WORKLOADS.items():
        inp = workloads.inputs(name, workloads.DEFAULT_SEED, tiny=True)
        out = tmp_path / f"out-{name}"
        entry = importlib.import_module(wl.entry)
        tracer = hooks.Tracer()
        try:  # an install that fails half-way is undone too
            tracer.install()
            code = entry.main(workloads.argv(name, inp, str(out)))
        finally:
            tracer.uninstall()
        assert code == 0, name
        assert workloads.check(name, inp, out.read_bytes(), None)[0] == [], name
        assert tracer.missing == [], name
