"""Scenario documents (JSON) and tabular output (CSV).

A scenario document is a JSON object with these keys:

* ``schema_version`` — optional, defaults to 1 (the only version).
* ``K0`` — initial capital, > 0. Required.
* ``tau`` — rotation length in years, > 0, inside the path domain.
  Required.
* ``path`` — required object with a ``kind`` discriminator:
  ``{"kind": "constant", "rate": ...}``,
  ``{"kind": "sin_squared", "mean_rate": ..., "shape": ...,
  "full_cycle": ...}``,
  ``{"kind": "tabulated", "knots": [[time, rate], ...]}``, or
  ``{"kind": "reversed", "inner": {...}, "horizon": ...}``.
* ``investments`` — optional list of ``{"time": ..., "amount": ...}``
  with times strictly increasing, strictly inside ``(0, tau)``.
* ``valuation`` — optional ``{"discount_rate": >0, "market_rate": ...,
  "leverage": >=-1}``.
* ``leverage`` — optional ``{"leverage": >=-1, "market_rate": ...,
  "equity": >0}``. When equity is given it must satisfy
  ``K0 / equity == leverage + 1`` to 1e-9.
* ``estate`` — optional ``{"ages": {"kind": "uniform"}}`` or
  ``{"ages": {"kind": "tabulated", "knots": [[age, weight], ...]}}``.
* ``quadrature_intervals`` — optional, default 4096.

All rates are per year and all times in years. Unknown keys anywhere
are rejected. Parsing reports every violated invariant at once, each
with its key path.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from collections.abc import Sequence

from .errors import DomainError, ScenarioParseError, ScenarioValidationError
from .estate import AgeDensity, EstateSpec, TabulatedAgeDensity, UniformAgeDensity
from .growth import GrowthScenario, InvestmentEvent
from .irr import CashEvent, CashFlowSchedule
from .leverage import LeverageSpec
from .paths import ConstantPath, ReturnPath, ReversedPath, SinSquaredPath, TabulatedPath
from .paths import _require_within
from .quadrature import DEFAULT_INTERVALS

SCHEMA_VERSION = 1

#: Tolerance on the capital/equity/leverage identity K0/E == L + 1.
LEVERAGE_IDENTITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ValuationSpec:
    """Discount rate plus the market rate and leverage used by the
    leveraged present-value forms."""

    discount_rate: float
    market_rate: float = 0.0
    leverage: float = 0.0


@dataclass(frozen=True)
class ScenarioDocument:
    """Validated scenario file contents."""

    initial_capital: float
    rotation_length: float
    path: ReturnPath
    investments: tuple[InvestmentEvent, ...] = ()
    valuation: ValuationSpec | None = None
    leverage: LeverageSpec | None = None
    ages: AgeDensity | None = None
    quadrature_intervals: int = DEFAULT_INTERVALS
    schema_version: int = SCHEMA_VERSION

    def scenario(self) -> GrowthScenario:
        return GrowthScenario(
            initial_capital=self.initial_capital,
            rotation_length=self.rotation_length,
            path=self.path,
            investments=self.investments,
        )

    def estate(self) -> EstateSpec | None:
        if self.ages is None:
            return None
        return EstateSpec(site_scenario=self.scenario(), ages=self.ages)


class _Check:
    """Collects (key_path, message) pairs so every violation is reported."""

    def __init__(self):
        self.violations: list[tuple[str, str]] = []

    def fail(self, path: str, message: str) -> None:
        self.violations.append((path, message))

    def number(self, value, path: str) -> float | None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(path, "must be a number")
            return None
        return float(value)

    def known_keys(self, obj: dict, allowed: set[str], path: str) -> None:
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")


def _parse_path(obj, check: _Check, path: str) -> ReturnPath | None:
    if not isinstance(obj, dict):
        check.fail(path, "must be an object")
        return None
    kind = obj.get("kind")
    if kind == "constant":
        check.known_keys(obj, {"kind", "rate"}, path)
        rate = check.number(obj.get("rate"), f"{path}.rate")
        return ConstantPath(rate) if rate is not None else None
    if kind == "sin_squared":
        check.known_keys(obj, {"kind", "mean_rate", "shape", "full_cycle"}, path)
        mean = check.number(obj.get("mean_rate"), f"{path}.mean_rate")
        shape = check.number(obj.get("shape"), f"{path}.shape")
        cycle = check.number(obj.get("full_cycle"), f"{path}.full_cycle")
        if None in (mean, shape, cycle):
            return None
        if cycle <= 0.0:
            check.fail(f"{path}.full_cycle", "must be > 0")
            return None
        return SinSquaredPath(mean_rate=mean, shape=shape, full_cycle=cycle)
    if kind == "tabulated":
        check.known_keys(obj, {"kind", "knots"}, path)
        knots = _parse_knots(obj.get("knots"), check, f"{path}.knots")
        if knots is None:
            return None
        try:
            return TabulatedPath(knots)
        except ValueError as exc:
            check.fail(f"{path}.knots", str(exc))
            return None
    if kind == "reversed":
        check.known_keys(obj, {"kind", "inner", "horizon"}, path)
        inner = _parse_path(obj.get("inner"), check, f"{path}.inner")
        horizon = check.number(obj.get("horizon"), f"{path}.horizon")
        if inner is None or horizon is None:
            return None
        return ReversedPath(inner=inner, horizon=horizon)
    check.fail(
        f"{path}.kind",
        "must be one of 'constant', 'sin_squared', 'tabulated', 'reversed'",
    )
    return None


def _parse_knots(obj, check: _Check, path: str) -> tuple[tuple[float, float], ...] | None:
    if not isinstance(obj, list):
        check.fail(path, "must be a list of [time, value] pairs")
        return None
    knots = []
    ok = True
    for i, pair in enumerate(obj):
        if not isinstance(pair, list) or len(pair) != 2:
            check.fail(f"{path}[{i}]", "must be a [time, value] pair")
            ok = False
            continue
        t = check.number(pair[0], f"{path}[{i}][0]")
        v = check.number(pair[1], f"{path}[{i}][1]")
        if t is None or v is None:
            ok = False
            continue
        knots.append((t, v))
    return tuple(knots) if ok else None


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse and validate a scenario document.

    Raises:
        ScenarioParseError: malformed JSON, with line and column.
        ScenarioValidationError: structurally valid JSON violating one
            or more schema invariants; lists all of them by key path.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ScenarioValidationError([("", "document must be a JSON object")])

    check = _Check()
    check.known_keys(
        raw,
        {
            "schema_version",
            "K0",
            "tau",
            "path",
            "investments",
            "valuation",
            "leverage",
            "estate",
            "quadrature_intervals",
        },
        "",
    )

    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        check.fail("schema_version", f"unsupported version (expected {SCHEMA_VERSION})")

    if "K0" not in raw:
        check.fail("K0", "required")
        k0 = None
    else:
        k0 = check.number(raw["K0"], "K0")
        if k0 is not None and k0 <= 0.0:
            check.fail("K0", "must be > 0")
            k0 = None

    if "tau" not in raw:
        check.fail("tau", "required")
        tau = None
    else:
        tau = check.number(raw["tau"], "tau")
        if tau is not None and tau <= 0.0:
            check.fail("tau", "must be > 0")
            tau = None

    if "path" not in raw:
        check.fail("path", "required")
        path_obj = None
    else:
        path_obj = _parse_path(raw["path"], check, "path")
    if path_obj is not None and tau is not None:
        try:
            _require_within("rotation", (0.0, tau), "path domain", path_obj.domain())
        except DomainError as exc:
            check.fail("tau", str(exc))

    investments = _parse_investments(raw.get("investments", []), check, tau)
    valuation = _parse_valuation(raw.get("valuation"), check)
    leverage = _parse_leverage(raw.get("leverage"), check, k0)
    ages = _parse_ages(raw.get("estate"), check, tau)

    intervals = raw.get("quadrature_intervals", DEFAULT_INTERVALS)
    if isinstance(intervals, bool) or not isinstance(intervals, int):
        check.fail("quadrature_intervals", "must be an integer")
        intervals = DEFAULT_INTERVALS
    elif intervals < 2:
        check.fail("quadrature_intervals", "must be >= 2")
        intervals = DEFAULT_INTERVALS

    if check.violations:
        raise ScenarioValidationError(check.violations)

    return ScenarioDocument(
        initial_capital=k0,
        rotation_length=tau,
        path=path_obj,
        investments=investments,
        valuation=valuation,
        leverage=leverage,
        ages=ages,
        quadrature_intervals=intervals,
        schema_version=SCHEMA_VERSION,
    )


def _parse_investments(obj, check: _Check, tau) -> tuple[InvestmentEvent, ...]:
    if not isinstance(obj, list):
        check.fail("investments", "must be a list")
        return ()
    events = []
    for i, entry in enumerate(obj):
        where = f"investments[{i}]"
        if not isinstance(entry, dict):
            check.fail(where, "must be an object")
            continue
        check.known_keys(entry, {"time", "amount"}, where)
        t = check.number(entry.get("time"), f"{where}.time")
        amount = check.number(entry.get("amount"), f"{where}.amount")
        if t is None or amount is None:
            continue
        if tau is not None and not 0.0 < t < tau:
            check.fail(f"{where}.time", "must lie strictly inside (0, tau)")
            continue
        events.append(InvestmentEvent(time=t, amount=amount))
    times = [e.time for e in events]
    if any(b <= a for a, b in zip(times, times[1:])):
        check.fail("investments", "event times must be strictly increasing")
    return tuple(events)


def _parse_valuation(obj, check: _Check) -> ValuationSpec | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        check.fail("valuation", "must be an object")
        return None
    check.known_keys(obj, {"discount_rate", "market_rate", "leverage"}, "valuation")
    d = check.number(obj.get("discount_rate"), "valuation.discount_rate")
    u = check.number(obj.get("market_rate", 0.0), "valuation.market_rate")
    lev = check.number(obj.get("leverage", 0.0), "valuation.leverage")
    if d is None or u is None or lev is None:
        return None
    if d <= 0.0:
        check.fail("valuation.discount_rate", "must be > 0")
        return None
    if lev < -1.0:
        check.fail("valuation.leverage", "must be >= -1")
        return None
    return ValuationSpec(discount_rate=d, market_rate=u, leverage=lev)


def _parse_leverage(obj, check: _Check, k0) -> LeverageSpec | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        check.fail("leverage", "must be an object")
        return None
    check.known_keys(obj, {"leverage", "market_rate", "equity"}, "leverage")
    lev = check.number(obj.get("leverage"), "leverage.leverage")
    u = check.number(obj.get("market_rate", 0.0), "leverage.market_rate")
    equity = None
    if "equity" in obj:
        equity = check.number(obj["equity"], "leverage.equity")
    if lev is None or u is None:
        return None
    if lev < -1.0:
        check.fail("leverage.leverage", "must be >= -1")
        return None
    if equity is not None:
        if equity <= 0.0:
            check.fail("leverage.equity", "must be > 0")
            return None
        if k0 is not None and abs(k0 / equity - (lev + 1.0)) >= LEVERAGE_IDENTITY_TOLERANCE:
            check.fail(
                "leverage.equity",
                f"capital/equity must equal leverage + 1 "
                f"(K0/equity = {k0 / equity:g}, leverage + 1 = {lev + 1.0:g})",
            )
            return None
    return LeverageSpec(leverage=lev, market_rate=u, equity=equity)


def _parse_ages(obj, check: _Check, tau) -> AgeDensity | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        check.fail("estate", "must be an object")
        return None
    check.known_keys(obj, {"ages"}, "estate")
    ages = obj.get("ages")
    if not isinstance(ages, dict):
        check.fail("estate.ages", "must be an object")
        return None
    kind = ages.get("kind")
    if kind == "uniform":
        check.known_keys(ages, {"kind"}, "estate.ages")
        return UniformAgeDensity()
    if kind == "tabulated":
        check.known_keys(ages, {"kind", "knots"}, "estate.ages")
        knots = _parse_knots(ages.get("knots"), check, "estate.ages.knots")
        if knots is None:
            return None
        try:
            density = TabulatedAgeDensity(knots)
        except ValueError as exc:
            check.fail("estate.ages.knots", str(exc))
            return None
        if tau is not None:
            try:
                _require_within("support", density.support(tau), "rotation", (0.0, tau))
            except DomainError as exc:
                check.fail("estate.ages.knots", str(exc))
                return None
        return density
    check.fail("estate.ages.kind", "must be 'uniform' or 'tabulated'")
    return None


def _path_to_json(path: ReturnPath) -> dict:
    if isinstance(path, ConstantPath):
        return {"kind": "constant", "rate": path.rate}
    if isinstance(path, SinSquaredPath):
        return {
            "kind": "sin_squared",
            "mean_rate": path.mean_rate,
            "shape": path.shape,
            "full_cycle": path.full_cycle,
        }
    if isinstance(path, TabulatedPath):
        return {"kind": "tabulated", "knots": [[t, r] for t, r in path.knots]}
    if isinstance(path, ReversedPath):
        return {
            "kind": "reversed",
            "inner": _path_to_json(path.inner),
            "horizon": path.horizon,
        }
    raise TypeError(f"cannot serialize path of type {type(path).__name__}")


def document_to_json_dict(doc: ScenarioDocument) -> dict:
    """Plain-JSON form of a document, with defaults written out."""
    out: dict = {
        "schema_version": doc.schema_version,
        "K0": doc.initial_capital,
        "tau": doc.rotation_length,
        "path": _path_to_json(doc.path),
        "investments": [
            {"time": e.time, "amount": e.amount} for e in doc.investments
        ],
        "quadrature_intervals": doc.quadrature_intervals,
    }
    if doc.valuation is not None:
        out["valuation"] = {
            "discount_rate": doc.valuation.discount_rate,
            "market_rate": doc.valuation.market_rate,
            "leverage": doc.valuation.leverage,
        }
    if doc.leverage is not None:
        lev: dict = {
            "leverage": doc.leverage.leverage,
            "market_rate": doc.leverage.market_rate,
        }
        if doc.leverage.equity is not None:
            lev["equity"] = doc.leverage.equity
        out["leverage"] = lev
    if doc.ages is not None:
        if isinstance(doc.ages, UniformAgeDensity):
            out["estate"] = {"ages": {"kind": "uniform"}}
        elif isinstance(doc.ages, TabulatedAgeDensity):
            out["estate"] = {
                "ages": {
                    "kind": "tabulated",
                    "knots": [[a, w] for a, w in doc.ages.knots],
                }
            }
        else:
            raise TypeError(
                f"cannot serialize age density of type {type(doc.ages).__name__}"
            )
    return out


def serialize_scenario(doc: ScenarioDocument) -> str:
    """Canonical JSON text for a document; parsing it back reproduces
    the document exactly."""
    return json.dumps(document_to_json_dict(doc), sort_keys=True, indent=2) + "\n"


def write_table(rows: Sequence[Sequence], columns: Sequence[str]) -> str:
    """Comma-separated table with a header row.

    Floats print with 9 significant digits; output bytes are a pure
    function of the input. Rows must all match the header width.

    Raises:
        ValueError: on ragged rows.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(list(columns))
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise ValueError(
                f"row {i} has {len(row)} cells, expected {len(columns)}"
            )
        writer.writerow([_format_cell(cell) for cell in row])
    return buffer.getvalue()


def _format_cell(cell) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        if math.isnan(cell) or math.isinf(cell):
            return str(cell)
        return format(cell, ".9g")
    return str(cell)


def read_cash_flow_csv(text: str) -> CashFlowSchedule:
    """Cash-flow schedule from CSV rows of ``time,amount``.

    A leading header row is skipped when its first cell is not numeric.
    """
    events = []
    for i, row in enumerate(csv.reader(io.StringIO(text))):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            t = float(row[0])
        except ValueError:
            if i == 0:
                continue  # header row
            raise ValueError(f"row {i + 1}: time {row[0]!r} is not numeric")
        if len(row) < 2:
            raise ValueError(f"row {i + 1}: expected time,amount")
        events.append(CashEvent(time=t, amount=float(row[1])))
    return CashFlowSchedule(events=tuple(events))
