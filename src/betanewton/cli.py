"""Command-line entry point for the root-finding experiment harness.

Subcommands: table1, table2, fractal, entropy, order, cuberoot, kuramoto,
manifest.  Exit codes: 0 success, 1 runtime error, 2 usage error, 3 unknown
function id, 4 malformed Kuramoto system, 5 incompatible entropy box size.
Output files are written atomically (temp file + rename), so a failing run
never leaves partial output behind.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from typing import Optional

import numpy as np

from . import basin, convergence, core, multivariate, report

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_UNKNOWN_FUNCTION = 3
EXIT_BAD_SYSTEM = 4
EXIT_BAD_COVERING = 5

_JOBS_ENV = "BETANEWTON_JOBS"


def _default_jobs() -> int:
    env = os.environ.get(_JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _parse_grid(text: str) -> basin.GridSpec:
    try:
        nx, ny = (int(t) for t in text.lower().split("x"))
        return basin.GridSpec(nx=nx, ny=ny)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 1000x1000, got {text!r}")


def _checked(convert, ok, expected: str):
    """An argparse `type` that converts a flag's text and checks the value.

    `--config` values go through the same function, so a file and a flag
    reject the same values, both as usage errors.
    """
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_jobs_count = _checked(int, lambda n: n >= 1, "an integer of at least 1")
_rotor_count = _checked(int, lambda n: n >= 2, "an integer of at least 2")
_coupling = _checked(float, lambda k: math.isfinite(k) and k > 0, "a finite positive number")


def _write_atomic(path: str, data) -> None:
    mode = "wb" if isinstance(data, bytes) else "w"
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-govout-")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, data) -> None:
    if getattr(args, "out", None):
        _write_atomic(args.out, data)
    else:
        if isinstance(data, bytes):
            sys.stdout.buffer.write(data)
        else:
            sys.stdout.write(data)


def _schedule(args) -> core.BetaSchedule:
    if args.schedule == "anneal":
        return core.BetaSchedule.annealing()
    if args.beta is None:
        raise SystemExit2("--beta is required with --schedule fixed")
    return core.BetaSchedule.fixed(args.beta)


class SystemExit2(Exception):
    """Usage error detected after argparse (exit code 2)."""


def _config(args) -> core.IterationConfig:
    try:
        return core.IterationConfig(epsilon=args.eps, max_iter=args.max_iter)
    except ValueError as exc:
        raise SystemExit2(str(exc))


def _table_output(args, rows) -> str:
    if args.format == "csv":
        return report.to_csv(rows)
    if args.format == "json":
        return report.to_json(rows)
    return report.to_markdown(rows)


def _cmd_table(args) -> int:
    rows = args.build(args.grid, _config(args), args.jobs)
    _emit(args, _table_output(args, rows))
    return EXIT_OK


def _cmd_fractal(args) -> int:
    p = core.get_problem(args.function)
    bmap = basin.sweep(p, args.grid, _schedule(args), _config(args), args.jobs)
    if args.format == "json":
        _emit(args, json.dumps(basin.basin_map_to_json(bmap)))
    else:
        _emit(args, basin.render_ppm(bmap))
    return EXIT_OK


def _cmd_entropy(args) -> int:
    p = core.get_problem(args.function)
    cfg = _config(args)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if args.beta_sweep:
        try:
            lo, hi, step = (float(t) for t in args.beta_sweep.split(":"))
        except ValueError:
            raise SystemExit2(f"--beta-sweep must be LO:HI:STEP, got {args.beta_sweep!r}")
        curve = basin.entropy_beta_sweep(p, args.grid, cfg, lo, hi, step,
                                         args.box, args.jobs)
        w.writerow(["beta", "entropy"])
        for beta, s in curve:
            w.writerow([repr(beta), repr(s)])
    else:
        sched = _schedule(args)
        bmap = basin.sweep(p, args.grid, sched, cfg, args.jobs)
        s = basin.basin_entropy(bmap, args.box)
        w.writerow(["function", "beta_mode", "beta", "mean_iterations",
                    "convergence_pct", "entropy"])
        w.writerow([p.id, sched.mode,
                    "" if sched.mode == core.ANNEALING else repr(sched.beta),
                    repr(bmap.mean_iterations), repr(bmap.convergence_pct),
                    repr(s)])
    _emit(args, buf.getvalue())
    return EXIT_OK


def _cmd_order(args) -> int:
    cfg = _config(args)
    problems = [core.get_problem(args.function)] if args.function else core.list_problems()
    if args.beta is not None:
        schedules = [core.BetaSchedule.fixed(args.beta)]
    elif args.schedule == "anneal":
        schedules = [core.BetaSchedule.annealing()]
    else:
        schedules = [sched for _, sched in report.TABLE2_MODES]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["function", "beta_mode", "beta", "q_final", "valid"])
    for p in problems:
        for sched in schedules:
            hit = convergence.order_probe(p, args.grid, sched, cfg)
            beta_txt = "" if sched.mode == core.ANNEALING else repr(sched.beta)
            if hit is None:
                w.writerow([p.id, sched.mode, beta_txt, "", "false"])
            else:
                # order_probe returns only valid estimates
                w.writerow([p.id, sched.mode, beta_txt, repr(hit[0].q_final), "true"])
    _emit(args, buf.getvalue())
    return EXIT_OK


def _cmd_cuberoot(args) -> int:
    win = convergence.cube_root_window()
    p = convergence.cube_root_problem()
    lines = [
        f"convergence window: ({win.lower:.5f}, {win.upper:.5f})",
        f"fastest beta:       {win.beta_min:.5f}",
        "",
        "beta      predicted |x1/x0|   measured |x1/x0|   iterate status",
    ]
    cfg = core.IterationConfig(max_iter=200, trace=True)
    for beta in (0.0, 0.3, 0.4, win.beta_min, 0.6, 0.7, 0.8, 1.0):
        pred = abs(win.multiplier(beta))
        out = core.iterate(p, 1.7 + 0.0j, core.BetaSchedule.fixed(beta), cfg)
        tr = out.trace
        meas = abs(tr[1]) / abs(tr[0]) if len(tr) > 1 and tr[0] != 0 else float("nan")
        lines.append(f"{beta:<9.5f} {pred:<19.12f} {meas:<18.12f} {out.status.value}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_kuramoto(args) -> int:
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            sys_obj = multivariate.kuramoto_from_json(fh.read())
        emitted_system = None
    elif args.random is not None:
        if args.seed is None:
            raise SystemExit2("--random needs --seed for reproducibility")
        sys_obj = multivariate.random_kuramoto(args.random, args.seed, args.kappa)
        emitted_system = multivariate.kuramoto_to_json(sys_obj)
    else:
        raise SystemExit2("kuramoto needs --input FILE or --random N --seed S")
    sched = _schedule(args)
    cfg = _config(args)
    phi0 = None
    if args.phi0 is not None:
        try:
            phi0 = np.asarray([float(t) for t in args.phi0.split(",")])
        except ValueError:
            raise SystemExit2(f"--phi0 must be comma-separated numbers, got {args.phi0!r}")
    sol = multivariate.solve_sync(sys_obj, phi0, sched, cfg)
    payload = {"solution": multivariate.sync_solution_to_json(sol)}
    if emitted_system is not None:
        payload["system"] = emitted_system
        payload["seed"] = args.seed
    _emit(args, json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_manifest(args) -> int:
    entries = [{
        "id": p.id,
        "formula": p.display,
        "known_roots": [[r.real, r.imag] for r in p.known_roots],
    } for p in core.list_problems()]
    _emit(args, json.dumps({"functions": entries}, indent=2))
    return EXIT_OK


def _apply_config_file(parser, argv):
    """Flags > config file > defaults: pre-scan --config and lift defaults.

    Defaults must be pushed into every subparser: each subcommand parses into
    a fresh namespace whose own defaults would otherwise shadow the file.
    """
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return
    with open(known.config, "r", encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SystemExit2(f"--config is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise SystemExit2("--config file must hold a JSON object")
    parsers = [parser] + [
        sub for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
        for sub in action.choices.values()
    ]
    actions_by_dest = {}
    for p in parsers:
        for a in p._actions:
            actions_by_dest.setdefault(a.dest, a)
    clean = {}
    for key, value in values.items():
        dest = key.replace("-", "_")
        act = actions_by_dest.get(dest)
        if act is None:
            raise SystemExit2(f"unknown config key {key!r}")
        # checked like the same text on the command line
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            value = text if act.type is None else act.type(text)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise SystemExit2(f"bad config value for {key!r}: {exc}")
        if act.choices is not None and value not in act.choices:
            raise SystemExit2(f"bad config value for {key!r}: {value!r} is not one of "
                              f"{', '.join(map(repr, act.choices))}")
        clean[dest] = value
    for p in parsers:
        local = {a.dest for a in p._actions}
        hit = {k: v for k, v in clean.items() if k in local}
        if hit:
            p.set_defaults(**hit)


def build_parser() -> argparse.ArgumentParser:
    # every command takes --out and --config, and only the flags it reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output path (atomic write); default stdout")
    common.add_argument("--config", help="JSON file with default flag values")

    stop = argparse.ArgumentParser(add_help=False)
    stop.add_argument("--eps", type=float, default=1e-14,
                      help="step-displacement stopping threshold")
    stop.add_argument("--max-iter", type=int, default=50,
                      help="iteration budget per starting point")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=_parse_grid, default=basin.GridSpec(),
                      help="grid as NXxNY (default 1000x1000)")

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_jobs_count, default=_default_jobs(),
                      help=f"sweep worker count (default: ${_JOBS_ENV} or cpu count); "
                           "results are identical for any value")

    sched = argparse.ArgumentParser(add_help=False)
    sched.add_argument("--schedule", choices=["fixed", "anneal"], default="fixed")
    sched.add_argument("--beta", type=float, default=None,
                       help="beta value (required with --schedule fixed)")

    ap = argparse.ArgumentParser(
        prog="betanewton",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table1", parents=[common, stop, grid, jobs],
                        help="iteration/convergence/time table at five fixed betas")
    sp.add_argument("--format", choices=["md", "csv", "json"], default="md")
    sp.set_defaults(func=_cmd_table, build=report.build_table1)

    sp = sub.add_parser("table2", parents=[common, stop, grid, jobs],
                        help="beta 0 / beta 1 / annealing comparison with orders")
    sp.add_argument("--format", choices=["md", "csv", "json"], default="md")
    sp.set_defaults(func=_cmd_table, build=report.build_table2)

    sp = sub.add_parser("fractal", parents=[common, stop, grid, jobs, sched],
                        help="render a basin-of-attraction image")
    sp.add_argument("--function", required=True)
    sp.add_argument("--format", choices=["ppm", "json"], default="ppm")
    sp.set_defaults(func=_cmd_fractal)

    sp = sub.add_parser("entropy", parents=[common, stop, grid, jobs, sched],
                        help="basin entropy of one sweep or a beta sweep")
    sp.add_argument("--function", required=True)
    sp.add_argument("--box", type=int, default=20)
    sp.add_argument("--beta-sweep", metavar="LO:HI:STEP",
                    help="curve over fixed betas instead of a single run")
    sp.set_defaults(func=_cmd_entropy)

    sp = sub.add_parser("order", parents=[common, stop, grid, sched],
                        help="empirical convergence orders as CSV")
    sp.add_argument("--function", help="restrict to one function id")
    sp.set_defaults(func=_cmd_order)

    sp = sub.add_parser("cuberoot", parents=[common],
                        help="analytic contraction window for x^(1/3)")
    sp.set_defaults(func=_cmd_cuberoot)

    sp = sub.add_parser("kuramoto", parents=[common, stop, sched],
                        help="solve a phase-locking problem")
    sp.add_argument("--input", help="system JSON file")
    sp.add_argument("--random", type=_rotor_count, metavar="N",
                    help="generate a random N-rotor system")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--kappa", type=_coupling, default=1.0)
    sp.add_argument("--phi0", help="comma-separated initial reduced phases")
    sp.set_defaults(func=_cmd_kuramoto)

    sp = sub.add_parser("manifest", parents=[common],
                        help="JSON manifest of the registered functions")
    sp.set_defaults(func=_cmd_manifest)

    return ap


# flags whose values may start with '-' (ranges, phase lists); argparse only
# recognizes bare negative numbers, so glue these into --flag=value form
_NEGATIVE_VALUE_FLAGS = ("--beta-sweep", "--phi0")


def _glue_negative_values(argv):
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _NEGATIVE_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    argv = _glue_negative_values(argv)
    ap = build_parser()
    try:
        _apply_config_file(ap, argv)
        args = ap.parse_args(argv)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except core.UnknownProblem as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_UNKNOWN_FUNCTION
    except basin.IncompatibleCovering as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_COVERING
    except multivariate.MalformedSystem as exc:  # a ValueError: caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SYSTEM
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
