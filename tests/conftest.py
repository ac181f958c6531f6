"""Shared pytest wiring: surfaces acceptance PASS/FAIL lines in the summary,
builds the affine problem that several suites sweep, and runs code in a
fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import betanewton
from betanewton.core import ScalarProblem

acceptance_lines = []


def affine_problem(a: complex = 1.0, b: complex = -1.0) -> ScalarProblem:
    """f(x) = a*x + b with a != 0; one Newton step solves it exactly."""
    a = complex(a)
    b = complex(b)

    def ev(z):
        return a * z + b

    def dv(z):
        return a + 0 * z

    return ScalarProblem("affine", ev, dv, (-b / a,), "a*x + b")


def fresh_stdout(code: str, **env: str) -> list:
    """Output lines of code run in a fresh interpreter on this betanewton.

    env is added to the child's environment only.  A fresh process is needed
    where this one already holds the state under test, such as loaded scipy
    modules or a BLAS thread count.
    """
    path = [str(Path(betanewton.__file__).parent.parent)]
    path += [p for p in [os.environ.get("PYTHONPATH")] if p]
    child = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env)
    out = subprocess.run([sys.executable, "-c", code], env=child, capture_output=True,
                         text=True, timeout=60, check=True)
    return out.stdout.splitlines()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance checks")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
