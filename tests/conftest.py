"""Shared pytest wiring: surfaces acceptance PASS/FAIL lines in the summary,
and builds the affine problem that several suites sweep."""

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance checks")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
