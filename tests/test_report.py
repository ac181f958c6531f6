"""Unit tests for benchmark table assembly and serialization."""

import csv
import io
import json
import math

import numpy as np

from betanewton.basin import GridSpec
from betanewton.core import IterationConfig, get_problem
from betanewton.report import (
    TABLE1_BETAS,
    TABLE2_MODES,
    TableRow,
    build_table1,
    build_table2,
    to_csv,
    to_json,
    to_markdown,
)
from conftest import affine_problem

_GRID = GridSpec(nx=24, ny=24)


def test_table1_affine_row():
    rows = build_table1(_GRID, problems=[affine_problem()])
    assert len(rows) == 1
    row = rows[0]
    descs = [d for d, _ in TABLE1_BETAS]
    assert descs == ["-1", "-0.5", "0", "0.5", "1"]
    for d in descs:
        assert row.columns[("iterations", d)] == 2.0
        assert row.columns[("convergence_pct", d)] == 100.0
        assert row.columns[("rel_time", d)] > 0.0
    assert ("order", "0") not in row.columns


def test_table2_orders_track_the_modes():
    rows = build_table2(GridSpec(nx=48, ny=48), problems=[get_problem("f2")])
    row = rows[0]
    assert [d for d, _ in TABLE2_MODES] == ["0", "1", "anneal"]
    assert abs(row.columns[("order", "0")] - 2.0) < 0.15
    assert abs(row.columns[("order", "1")] - 3.0) < 0.2
    assert row.columns[("order", "anneal")] > 3.4
    assert row.columns[("convergence_pct", "0")] == 100.0
    assert row.columns[("iterations", "1")] < row.columns[("iterations", "0")]


def test_everything_but_time_is_deterministic():
    a = build_table2(_GRID, problems=[get_problem("f4")])[0]
    b = build_table2(_GRID, problems=[get_problem("f4")])[0]
    for key, value in a.columns.items():
        if key[0] == "rel_time":
            continue
        assert b.columns[key] == value, key


def test_csv_round_trip_is_exact():
    rows = build_table2(_GRID, problems=[get_problem("f2")])
    records = list(csv.DictReader(io.StringIO(to_csv(rows))))
    assert {rec["function"] for rec in records} == {"f2"}
    back = {(rec["metric"], rec["beta"]): None if rec["value"] == "" else float(rec["value"])
            for rec in records}
    assert len(back) == len(records)
    assert back == rows[0].columns


def test_json_full_precision():
    rows = build_table1(_GRID, problems=[affine_problem()])
    data = json.loads(to_json(rows))
    assert data[0]["function"] == "affine"
    assert data[0]["columns"]["iterations:0"] == 2.0
    assert data[0]["columns"]["rel_time:0"] == 1.0


def test_markdown_rounding():
    row = TableRow("demo", {
        ("iterations", "0"): 9.0625,
        ("convergence_pct", "0"): 99.6,
        ("rel_time", "0"): 1.0,
        ("order", "anneal"): None,
    })
    text = to_markdown([row])
    lines = text.splitlines()
    assert lines[0].startswith("| function")
    assert "iterations b=0" in lines[0]
    cells = [c.strip() for c in lines[2].strip("|").split("|")]
    assert cells == ["demo", "9.1", "100", "1.00", "-"]
    nan_row = TableRow("demo", {("rel_time", "0"): float("nan")})
    assert to_markdown([nan_row]).splitlines()[2].split("|")[2].strip() == "-"
    assert to_markdown([]) == ""
