"""Command-line front end.

Three subcommands, all scriptable::

    capreturn sweep    --scenario s.json [grid/metric flags] [--out f.csv]
    capreturn optimize --scenario s.json --objective rroc|irr|npv|rroe ...
    capreturn irr      --cashflows flows.csv

``sweep`` tabulates the requested metrics over a rotation-length grid as
CSV (stdout or ``--out``), one column set per requested discount/market
rate. Each cell is a plain single-point library call named with its
column, so any cell can be reproduced independently. ``optimize``
reports the rotation length maximizing one criterion and the competing
criteria there, every number at that optimum read off one ``rroc`` pass
and one time average. ``irr`` prints every real discounting root of a
cash-flow schedule. Exit status is 0 only when no computation failed.
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
from .growth import growth_cycle_irr, rroc, with_rotation
from .irr import general_irr
from .leverage import leveraged_discount_rate, rroe
from .optimize import _irr_argmax, _npv_argmax, rroe_argmax
from .scenario_io import (
    MAX_INTERVALS,
    ScenarioDocument,
    document_to_json_dict,
    parse_scenario,
    read_cash_flow_csv,
    write_table,
)
from .valuation import _npv, _require_discount, npv

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


def _sweep_row(base, tau: float, metrics: list[str], args, intervals: int) -> list:
    """The ``(column, cell)`` pairs of the row at ``tau``, each cell one library call."""
    scenario, L = with_rotation(base, tau), args.L
    row = [("tau", tau), ("mean_rate", scenario.path.time_average_rate(tau, intervals=intervals))]
    for metric in metrics:
        if metric == "irr":
            row.append(("irr", growth_cycle_irr(scenario, intervals=intervals)))
        elif metric == "rroc":
            row.append(("rroc", rroc(scenario, intervals=intervals)))
        elif metric == "npv":
            row += [(f"npv_d{d:g}", npv(scenario, d, intervals=intervals)) for d in args.d]
        elif metric == "rroe":
            s = rroc(scenario, intervals=intervals)
            row += [(f"rroe_u{u:g}", rroe(s, L, u)) for u in args.u]
        elif metric == "omega":
            row += [(f"omega_u{u:g}", leveraged_discount_rate(scenario, L, u, intervals=intervals))
                    for u in args.u]
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
    for metric in metrics:
        if metric == "npv":
            _rates(args.d, "--d", "metric npv")
        elif metric in ("rroe", "omega"):
            _rates(args.u, "--u", f"metric {metric}")
    base = doc.scenario()
    rows = []
    for tau in grid:
        try:
            rows.append(_sweep_row(base, float(tau), metrics, args, doc.quadrature_intervals))
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
    columns = [column for column, _ in rows[0]]  # every row has the same columns
    text = _provenance(doc, settings) + write_table([[c for _, c in r] for r in rows], columns)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_optimize(args) -> int:
    """Each search returns tau* alone. Every number printed at a tau*, the
    objective's value among them, comes from one ``rroc`` pass and, for a
    cycle without events, one time average there."""
    doc = parse_scenario(_read_text(args.scenario))
    intervals = doc.quadrature_intervals
    grid = _tau_grid(args, doc)
    base = doc.scenario()
    L = args.L

    @functools.cache
    def at(tau: float) -> tuple[float, float | None]:
        """rroc at ``tau`` and its time average, or None where the rotation
        keeps an event: the IRR and present values need a cycle without one."""
        scenario = with_rotation(base, tau)
        s = rroc(scenario, intervals=intervals)
        if scenario.investments:
            return s, None
        return s, growth_cycle_irr(scenario, intervals=intervals)

    def npv_at(tau: float, d: float) -> float:
        _require_discount(d)
        return _npv(base.initial_capital, at(tau)[1], tau, d)

    def optima():
        """(label, tau*, value) per objective, each found as it is needed."""
        if args.objective == "rroc":
            # At leverage 0 the equity return is the capital return.
            tau = rroe_argmax(base, 0.0, 0.0, grid, intervals=intervals)
            yield "objective rroc", tau, at(tau)[0]
        elif args.objective == "irr":
            tau = _irr_argmax(base, grid, intervals)
            yield "objective irr", tau, at(tau)[1]
        elif args.objective == "npv":
            for d in _rates(args.d, "--d", "objective npv"):
                tau = _npv_argmax(base, d, grid, intervals)
                yield f"objective npv, d={d:g}", tau, npv_at(tau, d)
        elif args.objective == "rroe":
            # One optimum serves every market rate.
            rates = _rates(args.u, "--u", "objective rroe")
            tau = rroe_argmax(base, L, rates[0], grid, intervals=intervals)
            for u in rates:
                yield f"objective rroe, L={L:g}, u={u:g}", tau, rroe(at(tau)[0], L, u)

    # The whole report is built before any of it is printed, so a failure
    # leaves only its error line.
    report = []
    for label, tau, value in optima():
        s, avg = at(tau)
        report += [f"{label}: tau* = {tau:.9g}, value = {value:.9g}",
                   "competing criteria at tau*:", f"  rroc = {s:.9g}"]
        if avg is not None:
            report.append(f"  irr  = {avg:.9g}")
            report += [f"  npv(d={d:g}) = {npv_at(tau, d):.9g}" for d in args.d or []]
        report += [f"  rroe(L={L:g}, u={u:g}) = {rroe(s, L, u):.9g}" for u in args.u or []]
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
        return handlers[args.command](args)
    except (CapReturnError, OSError) as exc:
        print(f"capreturn {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
