"""Property test: a value from a `--config` file acts exactly as the same flag.

For the range-checked flags of two commands (kuramoto: `--random`, `--kappa`,
`--eps`, `--max-iter`; fractal: `--jobs`, `--eps`, `--max-iter`), hypothesis
draws values, out of range for at most the one flag the case names, and a
subset of them to move into a `--config` file, as JSON numbers or as
strings.  That run must give the exit code and output bytes of the run with
every value given as a flag.  The exit code is 0 when every value is in
range, and otherwise 2 with an `error:` line.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from betanewton.cli import main  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=12)

# flag -> (values in range, values out of range)
RANGES = {
    "eps": (st.one_of(st.floats(1e-16, 1e-2), st.just(math.inf)),
            st.sampled_from([0.0, -1e-14, math.nan, -math.inf])),
    "max-iter": (st.integers(1, 6), st.integers(-2, 0)),
    "jobs": (st.integers(1, 3), st.integers(-3, 0)),
    "random": (st.integers(2, 5), st.integers(-2, 1)),
    "kappa": (st.floats(1e-3, 1e3),
              st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])),
}

# command -> (fixed arguments, flags drawn); both write text to stdout
COMMANDS = {
    "kuramoto": (["kuramoto", "--seed", "0", "--schedule", "anneal"],
                 ("random", "kappa", "eps", "max-iter")),
    "fractal": (["fractal", "--function", "f2", "--grid", "4x5", "--schedule", "fixed",
                 "--beta", "0.5", "--format", "json"],
                ("jobs", "eps", "max-iter")),
}

# each command with every value in range, and with each flag's value out of it
CASES = [(command, bad) for command, (_, flags) in COMMANDS.items() for bad in (None,) + flags]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a flag's value by exiting
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@PROPERTY
@pytest.mark.parametrize("command, bad", CASES)
@given(data=st.data())
def test_config_values_act_as_flags(command, bad, data):
    fixed, flags = COMMANDS[command]
    values = {f: data.draw(RANGES[f][f == bad], label=f) for f in flags}
    in_file = data.draw(st.sets(st.sampled_from(flags), min_size=1), label="in file")
    as_text = data.draw(st.booleans(), label="strings in file")

    def flag(f):
        return f"--{f}={values[f]!r}"

    want = _run(fixed + [flag(f) for f in flags])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({f: repr(values[f]) if as_text else values[f] for f in in_file}, fh)
        got = _run(fixed + [flag(f) for f in flags if f not in in_file] + ["--config", path])

    assert got[:2] == want[:2]
    if bad is None:
        assert want[0] == 0 and want[1]
    else:
        assert want[0] == 2 and not want[1]
        assert "error: " in want[2] and "error: " in got[2]
