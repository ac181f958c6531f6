"""End-to-end tests of the command-line interface via main(argv)."""

import csv
import io
import json
import os

import pytest

from betanewton import cli
from betanewton.cli import main


def _run_csv(argv):
    buf = io.StringIO()
    import sys
    old = sys.stdout
    sys.stdout = buf
    try:
        rc = main(argv)
    finally:
        sys.stdout = old
    return rc, list(csv.DictReader(io.StringIO(buf.getvalue())))


# ---------------------------------------------------------------------------
# happy paths

def test_manifest_lists_all_functions(capsys):
    assert main(["manifest"]) == 0
    data = json.loads(capsys.readouterr().out)
    funcs = data["functions"]
    assert len(funcs) == 14
    assert funcs[0]["id"] == "f1"
    assert all(f["formula"] for f in funcs)
    assert funcs[1]["known_roots"][0] == [1.0, 0.0]


def test_cuberoot_report(capsys):
    assert main(["cuberoot"]) == 0
    text = capsys.readouterr().out
    assert "(0.26457, 0.79370)" in text
    assert "0.52913" in text
    assert "converged" in text
    assert "max_iterations" in text


def test_order_csv_modes():
    rc, recs = _run_csv(["order", "--function", "f2", "--grid", "40x40",
                         "--jobs", "1"])
    assert rc == 0
    assert [r["beta_mode"] for r in recs] == ["fixed", "fixed", "annealing"]
    assert [r["beta"] for r in recs] == ["0.0", "1.0", ""]
    assert all(r["valid"] == "true" for r in recs)
    qs = [float(r["q_final"]) for r in recs]
    assert abs(qs[0] - 2.0) < 0.2 and abs(qs[1] - 3.0) < 0.3
    rc, recs = _run_csv(["order", "--function", "f2", "--grid", "40x40",
                         "--beta", "0.5", "--jobs", "1"])
    assert rc == 0
    assert len(recs) == 1 and recs[0]["beta"] == "0.5"


def test_fractal_ppm_deterministic(tmp_path):
    out = tmp_path / "basins.ppm"
    argv = ["fractal", "--function", "f2", "--grid", "32x32", "--schedule",
            "anneal", "--jobs", "2", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert first.startswith(b"P6\n32 32\n255\n")
    assert len(first) == len(b"P6\n32 32\n255\n") + 3 * 32 * 32
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_fractal_json(tmp_path):
    out = tmp_path / "basins.json"
    assert main(["fractal", "--function", "f4", "--grid", "16x16", "--schedule",
                 "fixed", "--beta", "1", "--format", "json", "--jobs", "1",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["grid"]["nx"] == 16
    assert len(data["labels"]) == 256
    assert len(data["roots"]) >= 4


def test_entropy_single_row():
    rc, recs = _run_csv(["entropy", "--function", "f2", "--grid", "20x20",
                         "--box", "10", "--schedule", "fixed", "--beta", "0",
                         "--jobs", "1"])
    assert rc == 0
    assert len(recs) == 1
    row = recs[0]
    assert row["function"] == "f2"
    assert row["beta_mode"] == "fixed"
    assert row["beta"] == "0.0"
    assert float(row["entropy"]) >= 0.0
    assert float(row["convergence_pct"]) == 100.0


def test_entropy_beta_sweep():
    rc, recs = _run_csv(["entropy", "--function", "f2", "--grid", "20x20",
                         "--box", "10", "--beta-sweep", "0:1:0.5", "--jobs", "1"])
    assert rc == 0
    assert [r["beta"] for r in recs] == ["0.0", "0.5", "1.0"]
    assert all(float(r["entropy"]) >= 0.0 for r in recs)
    # a range starting at a negative beta must survive argparse
    rc, recs = _run_csv(["entropy", "--function", "f2", "--grid", "20x20",
                         "--box", "10", "--beta-sweep", "-1:1:1", "--jobs", "1"])
    assert rc == 0
    assert [r["beta"] for r in recs] == ["-1.0", "0.0", "1.0"]


def test_kuramoto_random_round_trip(tmp_path, capsys):
    assert main(["kuramoto", "--random", "4", "--seed", "11", "--kappa", "2.0",
                 "--schedule", "anneal"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 11
    assert payload["solution"]["status"] == "converged"
    assert payload["solution"]["phases"][0] == 0.0

    sysfile = tmp_path / "system.json"
    sysfile.write_text(json.dumps(payload["system"]))
    assert main(["kuramoto", "--input", str(sysfile), "--schedule", "anneal"]) == 0
    again = json.loads(capsys.readouterr().out)
    assert "system" not in again
    assert again["solution"]["phases"] == payload["solution"]["phases"]
    assert again["solution"]["omega"] == payload["solution"]["omega"]


def test_kuramoto_phi0_flag(capsys):
    assert main(["kuramoto", "--random", "2", "--seed", "3", "--phi0", "2.9",
                 "--schedule", "fixed", "--beta", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["solution"]["status"] == "converged"
    assert main(["kuramoto", "--random", "3", "--seed", "3", "--phi0",
                 "-0.3,0.2", "--schedule", "anneal"]) == 0
    capsys.readouterr()
    assert main(["kuramoto", "--random", "3", "--seed", "3", "--phi0",
                 "zero,0.2", "--schedule", "anneal"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit codes

def test_unknown_function_exit_code(capsys):
    assert main(["fractal", "--function", "f99", "--grid", "8x8",
                 "--schedule", "fixed", "--beta", "0"]) == 3
    assert "unknown function id" in capsys.readouterr().err


def test_malformed_system_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 3}")
    assert main(["kuramoto", "--input", str(bad), "--schedule", "fixed",
                 "--beta", "0"]) == 4
    assert "bad system fields" in capsys.readouterr().err


def test_incompatible_box_exit_code(capsys):
    assert main(["entropy", "--function", "f2", "--grid", "30x30", "--box", "7",
                 "--schedule", "fixed", "--beta", "0", "--jobs", "1"]) == 5
    assert "does not tile" in capsys.readouterr().err


def test_usage_errors_after_parsing(capsys):
    assert main(["kuramoto", "--schedule", "fixed", "--beta", "0"]) == 2
    assert main(["kuramoto", "--random", "3", "--schedule", "anneal"]) == 2
    assert main(["fractal", "--function", "f2", "--grid", "8x8",
                 "--schedule", "fixed"]) == 2  # fixed needs --beta
    capsys.readouterr()


def test_nonfinite_beta_sweep_is_runtime_error(capsys):
    for spec in ("0:inf:1", "0:nan:1", "0:1e300:1"):
        assert main(["entropy", "--function", "f2", "--grid", "20x20", "--box", "10",
                     "--beta-sweep", spec, "--jobs", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_argparse_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["fractal", "--grid", "8x8"])  # --function is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fractal", "--function", "f2", "--grid", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_config_file_is_runtime_error(tmp_path, capsys):
    assert main(["manifest", "--config", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# output handling

def test_out_file_atomic_success(tmp_path):
    out = tmp_path / "manifest.json"
    assert main(["manifest", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["functions"]
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


def test_failed_run_leaves_no_output(tmp_path, capsys):
    out = tmp_path / "entropy.csv"
    rc = main(["entropy", "--function", "f2", "--grid", "30x30", "--box", "7",
               "--schedule", "fixed", "--beta", "0", "--jobs", "1",
               "--out", str(out)])
    capsys.readouterr()
    assert rc == 5
    assert not out.exists()
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


# ---------------------------------------------------------------------------
# configuration

def test_jobs_env_default(monkeypatch):
    monkeypatch.setenv(cli._JOBS_ENV, "7")
    assert cli._default_jobs() == 7
    monkeypatch.setenv(cli._JOBS_ENV, "banana")
    assert cli._default_jobs() == (os.cpu_count() or 1)
    monkeypatch.delenv(cli._JOBS_ENV)
    assert cli._default_jobs() == (os.cpu_count() or 1)


def test_config_file_provides_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": "12x12", "max-iter": 40}))
    out = tmp_path / "map.json"
    base = ["fractal", "--function", "f2", "--schedule", "fixed", "--beta", "0",
            "--format", "json", "--jobs", "1", "--config", str(cfg),
            "--out", str(out)]
    assert main(base) == 0
    data = json.loads(out.read_text())
    assert data["grid"]["nx"] == 12
    assert data["max_iter"] == 40
    assert main(base + ["--grid", "8x8"]) == 0
    assert json.loads(out.read_text())["grid"]["nx"] == 8


def test_config_file_rejects_junk(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gird": "12x12"}))
    assert main(["manifest", "--config", str(cfg)]) == 2
    cfg.write_text("[1, 2]")
    assert main(["manifest", "--config", str(cfg)]) == 2
    cfg.write_text("{oops")
    assert main(["manifest", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"grid": "wide"}))
    assert main(["manifest", "--config", str(cfg)]) == 2
    capsys.readouterr()
    # non-string values and choices are checked like the same flag's text
    for values in ({"grid": 200}, {"max_iter": 5.5}, {"max-iter": True},
                   {"format": "xml", "grid": "4x4"}):
        cfg.write_text(json.dumps(values))
        assert main(["table1", "--jobs", "1", "--config", str(cfg)]) == 2, values
        assert "bad config value" in capsys.readouterr().err
