"""Command-line front end.

Three subcommands, all scriptable::

    capreturn sweep    --scenario s.json [grid/metric flags] [--out f.csv]
    capreturn optimize --scenario s.json --objective rroc|irr|npv|rroe ...
    capreturn irr      --cashflows flows.csv

``sweep`` tabulates the requested metrics over a rotation-length grid as
CSV (stdout or ``--out``), one column set per requested discount/market
rate. Rows are plain single-point library calls, so any cell can be
reproduced independently. ``optimize`` reports the rotation length
maximizing one criterion and shows the competing criteria at that
optimum. ``irr`` prints every real discounting root of a cash-flow
schedule. Exit status is 0 only when no computation failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import CapReturnError, ScenarioParseError
from .growth import rroc, with_rotation
from .irr import _irr_argmax, general_irr, growth_cycle_irr
from .leverage import _rroc_optimum, leveraged_discount_rate, rroe, rroe_argmax
from .scenario_io import (
    MAX_INTERVALS,
    ScenarioDocument,
    document_to_json_dict,
    parse_scenario,
    read_cash_flow_csv,
    write_table,
)
from .valuation import _npv_argmax, npv

_METRICS = ("irr", "rroc", "npv", "rroe", "omega")


def _finite(text: str) -> float:
    """argparse type of every numeric flag: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument(
        "--tau-min", type=_finite, default=None,
        help="grid start in years (default: tau-max / tau-steps)",
    )
    parser.add_argument(
        "--tau-max", type=_finite, default=None,
        help="grid end in years (default: the scenario's tau)",
    )
    parser.add_argument(
        "--tau-steps", type=int, default=200, help="grid points (default 200)"
    )
    parser.add_argument(
        "--d", action="append", type=_finite, default=None, metavar="RATE",
        help="discount rate per year; repeat for several (needed for npv)",
    )
    parser.add_argument(
        "--u", action="append", type=_finite, default=None, metavar="RATE",
        help="market interest rate per year; repeat for several "
        "(needed for rroe and omega)",
    )
    parser.add_argument(
        "--L", type=_finite, default=1.0, metavar="RATIO",
        help="leverage ratio (default 1.0)",
    )


@functools.cache  # parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capreturn",
        description="Capital-return analytics for periodic growth processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="tabulate metrics over a rotation grid")
    _add_common(sweep)
    sweep.add_argument(
        "--metrics", default="irr,rroc",
        help=f"comma list from {{{','.join(_METRICS)}}} (default irr,rroc)",
    )
    sweep.add_argument("--out", default=None, help="output CSV file (default stdout)")

    opt = sub.add_parser("optimize", help="find the best rotation length")
    _add_common(opt)
    opt.add_argument(
        "--objective", required=True, choices=["rroc", "irr", "npv", "rroe"],
        help="criterion to maximize",
    )

    irr_cmd = sub.add_parser("irr", help="rates of return of a cash-flow schedule")
    irr_cmd.add_argument(
        "--cashflows", required=True, help="CSV file with time,amount rows"
    )
    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        message = f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        raise ScenarioParseError(message) from None


def _tau_grid(args, doc: ScenarioDocument) -> np.ndarray:
    tau_max = args.tau_max if args.tau_max is not None else doc.rotation_length
    steps = args.tau_steps
    if not 2 <= steps <= MAX_INTERVALS:  # checked before it sizes the grid and the table
        raise CapReturnError(f"--tau-steps must be between 2 and {MAX_INTERVALS}")
    tau_min = args.tau_min if args.tau_min is not None else tau_max / steps
    if not 0.0 < tau_min < tau_max:
        raise CapReturnError("need 0 < --tau-min < --tau-max")
    return np.linspace(tau_min, tau_max, steps)


def _rates(values, flag: str, needed_for: str):
    if not values:
        raise CapReturnError(f"{needed_for} requires at least one {flag} value")
    return list(values)


def _sweep_columns(args, metrics: list[str]) -> list[str]:
    columns = ["tau", "mean_rate"]
    for metric in metrics:
        if metric == "irr":
            columns.append("irr")
        elif metric == "rroc":
            columns.append("rroc")
        elif metric == "npv":
            columns += [f"npv_d{d:g}" for d in _rates(args.d, "--d", "metric npv")]
        elif metric == "rroe":
            columns += [f"rroe_u{u:g}" for u in _rates(args.u, "--u", "metric rroe")]
        elif metric == "omega":
            columns += [f"omega_u{u:g}" for u in _rates(args.u, "--u", "metric omega")]
    return columns


def _sweep_row(doc: ScenarioDocument, tau: float, metrics: list[str], args) -> list:
    intervals = doc.quadrature_intervals
    scenario = with_rotation(doc.scenario(), tau)
    row: list = [tau, scenario.path.time_average_rate(tau, intervals=intervals)]
    for metric in metrics:
        if metric == "irr":
            row.append(growth_cycle_irr(scenario, intervals=intervals))
        elif metric == "rroc":
            row.append(rroc(scenario, intervals=intervals))
        elif metric == "npv":
            row += [npv(scenario, d, intervals=intervals) for d in args.d]
        elif metric == "rroe":
            s = rroc(scenario, intervals=intervals)
            row += [rroe(s, args.L, u) for u in args.u]
        elif metric == "omega":
            row += [
                leveraged_discount_rate(scenario, args.L, u, intervals=intervals)
                for u in args.u
            ]
    return row


def _provenance(doc: ScenarioDocument, settings: dict) -> str:
    scenario_json = json.dumps(document_to_json_dict(doc), sort_keys=True)
    settings_json = json.dumps(settings, sort_keys=True)
    return f"# scenario {scenario_json}\n# settings {settings_json}\n"


def _cmd_sweep(args) -> int:
    doc = parse_scenario(_read_text(args.scenario))
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    for metric in metrics:
        if metric not in _METRICS:
            raise CapReturnError(
                f"unknown metric {metric!r}; choose from {', '.join(_METRICS)}"
            )
    grid = _tau_grid(args, doc)
    columns = _sweep_columns(args, metrics)

    rows = []
    for tau in grid:
        try:
            rows.append(_sweep_row(doc, float(tau), metrics, args))
        except CapReturnError as exc:
            raise CapReturnError(f"at tau={tau:g}: {exc}") from exc

    settings = {
        "tau_min": float(grid[0]),
        "tau_max": float(grid[-1]),
        "tau_steps": len(grid),
        "metrics": metrics,
        "d": args.d,
        "u": args.u,
        "L": args.L,
    }
    text = _provenance(doc, settings) + write_table(rows, columns)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _competing_report(doc: ScenarioDocument, tau: float, s: float | None, args) -> list[str]:
    """The criteria at ``tau``; ``s`` is the capital return there, when the
    search has it already."""
    intervals = doc.quadrature_intervals
    scenario = with_rotation(doc.scenario(), tau)
    if s is None:
        s = rroc(scenario, intervals=intervals)
    lines = [f"  rroc = {s:.9g}"]
    if not scenario.investments:  # the IRR and present values need a cycle without events
        lines.append(f"  irr  = {growth_cycle_irr(scenario, intervals=intervals):.9g}")
        for d in args.d or []:
            lines.append(f"  npv(d={d:g}) = {npv(scenario, d, intervals=intervals):.9g}")
    for u in args.u or []:
        lines.append(f"  rroe(L={args.L:g}, u={u:g}) = {rroe(s, args.L, u):.9g}")
    return lines


def _cmd_optimize(args) -> int:
    doc = parse_scenario(_read_text(args.scenario))
    intervals = doc.quadrature_intervals
    grid = _tau_grid(args, doc)
    base = doc.scenario()

    def optima():
        """(label, (tau*, value), rroc at tau* or None) per objective,
        each found as it is needed."""
        if args.objective == "rroc":
            optimum = _rroc_optimum(base, grid, intervals)
            yield "objective rroc", optimum, optimum[1]
        elif args.objective == "irr":
            yield "objective irr", _irr_argmax(base, grid, intervals), None
        elif args.objective == "npv":
            for d in _rates(args.d, "--d", "objective npv"):
                yield f"objective npv, d={d:g}", _npv_argmax(base, d, grid, intervals), None
        elif args.objective == "rroe":
            # One capital-return search serves every market rate: rroe_argmax
            # checks --L, and its remembered search gives rroc at tau*.
            for u in _rates(args.u, "--u", "objective rroe"):
                tau = rroe_argmax(base, args.L, u, grid, intervals=intervals)
                _, s = _rroc_optimum(base, grid, intervals)
                yield f"objective rroe, L={args.L:g}, u={u:g}", (tau, rroe(s, args.L, u)), s

    # The whole report is built before any of it is printed, so a failure
    # leaves only its error line.
    report = []
    for label, (tau_star, value), s in optima():
        report += [
            f"{label}: tau* = {tau_star:.9g}, value = {value:.9g}",
            "competing criteria at tau*:",
            *_competing_report(doc, tau_star, s, args),
        ]
    print("\n".join(report))
    return 0


def _cmd_irr(args) -> int:
    schedule = read_cash_flow_csv(_read_text(args.cashflows))
    result = general_irr(schedule)
    print(f"base step   : {result.base_step:.9g} years")
    print(f"poly degree : {result.degree}")
    print(f"complex     : {result.complex_root_count}")
    if result.principal_root is None:
        print("principal   : none (no real root)")
    else:
        print(f"principal   : {result.principal_root:.9g}")
    for rate, residual in zip(result.all_real_roots, result.residuals):
        print(f"real root   : {rate:.9g}  (residual {residual:.3e})")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"sweep": _cmd_sweep, "optimize": _cmd_optimize, "irr": _cmd_irr}
    try:
        # Overflow ends in a typed error (capital beyond float range, a root
        # that does not converge); numpy's warnings would only precede it.
        with np.errstate(over="ignore", invalid="ignore"):
            return handlers[args.command](args)
    except (CapReturnError, OSError) as exc:
        print(f"capreturn {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
