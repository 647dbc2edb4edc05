"""Scenario documents (JSON) and tabular output (CSV).

A scenario document is a JSON object with these keys:

* ``schema_version`` — optional, defaults to 1 (the only version).
* ``K0`` — initial capital, > 0. Required.
* ``tau`` — rotation length, > 0, inside the path domain. Required.
* ``path`` — required object with a ``kind`` discriminator:
  ``{"kind": "constant", "rate": ...}``,
  ``{"kind": "sin_squared", "mean_rate": ..., "shape": ...,
  "full_cycle": ...}``,
  ``{"kind": "tabulated", "knots": [[time, rate], ...]}``, or
  ``{"kind": "reversed", "inner": {...}, "horizon": ...}``.
* ``investments`` — optional list of ``{"time": ..., "amount": ...}``
  with times strictly increasing, strictly inside ``(0, tau)``.
* ``estate`` — optional ``{"ages": {"kind": "uniform"}}`` or
  ``{"ages": {"kind": "tabulated", "knots": [[age, weight], ...]}}``.
* ``quadrature_intervals`` — optional integer in ``[2, 2**20]``,
  default 4096.

All rates are per year and all times in years. Every number must be
finite; unknown keys anywhere are rejected. Parsing reports every
violated invariant at once, each with its key path. Schema version 1
once also took ``valuation`` and ``leverage`` sections, which no command
read; they are now unknown keys. The rates d and u and the leverage L
come from the CLI's ``--d``, ``--u`` and ``--L``, which the ``# settings``
line of ``sweep`` echoes.

Each object below the top level is built through its dataclass, whose
field names are its keys (plus ``kind``). The constructor is the one
check of the object's own invariants; a value it rejects is reported at
the object's key path, with the constructor's message. The parser checks
what spans objects: ``tau``, event times and the age density's support.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields
from collections.abc import Sequence

import numpy as np

from .errors import DomainError, NoRootError, ScenarioParseError, ScenarioValidationError
from .estate import AgeDensity, EstateSpec, TabulatedAgeDensity, UniformAgeDensity
from .growth import GrowthScenario, InvestmentEvent
from .irr import CashEvent, CashFlowSchedule
from .paths import ConstantPath, ReturnPath, ReversedPath, SinSquaredPath, TabulatedPath
from .paths import _require_within
from .quadrature import DEFAULT_INTERVALS

SCHEMA_VERSION = 1

#: Largest accepted ``quadrature_intervals``; it sizes every node array.
MAX_INTERVALS = 2**20


@dataclass(frozen=True)
class ScenarioDocument:
    """Validated scenario file contents."""

    initial_capital: float
    rotation_length: float
    path: ReturnPath
    investments: tuple[InvestmentEvent, ...] = ()
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


#: The object kinds of the ``path`` and ``estate.ages`` sections.
_PATHS = {"constant": ConstantPath, "sin_squared": SinSquaredPath,
          "tabulated": TabulatedPath, "reversed": ReversedPath}
_AGES = {"uniform": UniformAgeDensity, "tabulated": TabulatedAgeDensity}


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
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float range
            number = math.inf
        if not math.isfinite(number):
            self.fail(path, "must be a finite number")
            return None
        return number

    def known_keys(self, obj: dict, allowed, path: str) -> None:
        for key in obj:
            if key not in allowed:
                self.fail(f"{path}.{key}" if path else key, "unknown key")


def _build(spec, obj, check: _Check, key: str):
    """The object at ``key``, built through its dataclass fields, or None
    after recording why not.

    ``spec`` is the class itself, or a table of classes by ``kind``. The
    ``knots`` field reads as [time, value] pairs, ``inner`` as a path and
    every other field as a number; every field is required. A ValueError
    from the constructor is reported at ``key``.
    """
    if not isinstance(obj, dict):
        check.fail(key, "must be an object")
        return None
    cls, allowed = spec, set()
    if isinstance(spec, dict):
        kind = obj.get("kind")
        cls = spec.get(kind) if isinstance(kind, str) else None
        if cls is None:
            check.fail(f"{key}.kind", "must be one of " + ", ".join(map(repr, spec)))
            return None
        allowed.add("kind")
    own = fields(cls)
    check.known_keys(obj, allowed.union(f.name for f in own), key)
    values = {}
    for f in own:
        where = f"{key}.{f.name}"
        if f.name == "knots":
            values[f.name] = _parse_knots(obj.get(f.name), check, where)
        elif f.name == "inner":
            values[f.name] = _build(_PATHS, obj.get(f.name), check, where)
        else:
            values[f.name] = check.number(obj.get(f.name), where)
    if None in values.values():
        return None
    try:
        return cls(**values)
    except ValueError as exc:
        check.fail(key, str(exc))
        return None


def _parse_knots(obj, check: _Check, path: str) -> tuple[tuple[float, float], ...] | None:
    if not isinstance(obj, list):
        check.fail(path, "must be a list of [time, value] pairs")
        return None
    # One pass over the cell types, one array and one finiteness check; the
    # cells are walked one by one below only to name a failure. A bool's
    # type is not int, so it takes the walk.
    if all(
        type(pair) is list and len(pair) == 2
        and type(pair[0]) in (int, float) and type(pair[1]) in (int, float)
        for pair in obj
    ):
        try:
            cells = np.array(obj, dtype=float)
        except OverflowError:  # an integer beyond float range
            pass
        else:
            if np.isfinite(cells).all():
                return tuple(map(tuple, cells.tolist()))
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
        ScenarioParseError: malformed JSON, with line and column, or
            JSON nested deeper than the interpreter's recursion limit.
        ScenarioValidationError: structurally valid JSON violating one
            or more schema invariants; lists all of them by key path.
    """
    try:
        return _validate(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:  # in json.loads, or from Python 3.12 (whose json.loads
        # reads deeper than Python calls may recurse) in _build's descent
        raise ScenarioParseError("document nests too deeply") from None


def _validate(raw) -> ScenarioDocument:
    """The document of parsed JSON, or ScenarioValidationError."""
    if not isinstance(raw, dict):
        raise ScenarioValidationError([("", "document must be a JSON object")])

    check = _Check()
    top_level = ("schema_version", "K0", "tau", "path", "investments", "estate",
                 "quadrature_intervals")
    check.known_keys(raw, top_level, "")

    version = raw.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        check.fail("schema_version", f"unsupported version (expected {SCHEMA_VERSION})")

    k0 = _positive(raw, "K0", check)
    tau = _positive(raw, "tau", check)

    if "path" not in raw:
        check.fail("path", "required")
        path_obj = None
    else:
        path_obj = _build(_PATHS, raw["path"], check, "path")
    if path_obj is not None and tau is not None:
        try:
            _require_within("rotation", (0.0, tau), "path domain", path_obj.domain())
        except DomainError as exc:
            check.fail("tau", str(exc))

    investments = _parse_investments(raw.get("investments", []), check, tau)
    ages = _parse_ages(raw.get("estate"), check, tau)

    intervals = raw.get("quadrature_intervals", DEFAULT_INTERVALS)
    if isinstance(intervals, bool) or not isinstance(intervals, int):
        check.fail("quadrature_intervals", "must be an integer")
    elif intervals < 2:
        check.fail("quadrature_intervals", "must be >= 2")
    elif intervals > MAX_INTERVALS:
        check.fail("quadrature_intervals", f"must be <= {MAX_INTERVALS}")

    if check.violations:
        raise ScenarioValidationError(check.violations)

    return ScenarioDocument(
        initial_capital=k0,
        rotation_length=tau,
        path=path_obj,
        investments=investments,
        ages=ages,
        quadrature_intervals=intervals,
        schema_version=SCHEMA_VERSION,
    )


def _positive(raw: dict, key: str, check: _Check) -> float | None:
    """The required top-level number at ``key``, which must be > 0."""
    if key not in raw:
        check.fail(key, "required")
        return None
    value = check.number(raw[key], key)
    if value is not None and value <= 0.0:
        check.fail(key, "must be > 0")
        return None
    return value


def _parse_investments(obj, check: _Check, tau) -> tuple[InvestmentEvent, ...]:
    if not isinstance(obj, list):
        check.fail("investments", "must be a list")
        return ()
    events = []
    for i, entry in enumerate(obj):
        event = _build(InvestmentEvent, entry, check, f"investments[{i}]")
        if event is None:
            continue
        if tau is not None and not 0.0 < event.time < tau:
            check.fail(f"investments[{i}].time", "must lie strictly inside (0, tau)")
            continue
        events.append(event)
    times = [e.time for e in events]
    if any(b <= a for a, b in zip(times, times[1:])):
        check.fail("investments", "event times must be strictly increasing")
    return tuple(events)


def _parse_ages(obj, check: _Check, tau) -> AgeDensity | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        check.fail("estate", "must be an object")
        return None
    check.known_keys(obj, {"ages"}, "estate")
    density = _build(_AGES, obj.get("ages"), check, "estate.ages")
    if density is not None and tau is not None:
        try:
            _require_within("support", density.support(tau), "rotation", (0.0, tau))
        except DomainError as exc:
            check.fail("estate.ages.knots", str(exc))
            return None
    return density


def _to_json(obj, kinds=None) -> dict:
    """Plain-JSON form of one object, written through its dataclass
    fields: the inverse of :func:`_build`."""
    out: dict = {}
    if kinds is not None:
        kind = next((k for k, cls in kinds.items() if isinstance(obj, cls)), None)
        if kind is None:
            raise TypeError(f"cannot serialize object of type {type(obj).__name__}")
        out["kind"] = kind
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name == "knots":
            value = [list(pair) for pair in value]
        elif f.name == "inner":
            value = _to_json(value, _PATHS)
        out[f.name] = value
    return out


def document_to_json_dict(doc: ScenarioDocument) -> dict:
    """Plain-JSON form of a document, with defaults written out."""
    out: dict = {
        "schema_version": doc.schema_version,
        "K0": doc.initial_capital,
        "tau": doc.rotation_length,
        "path": _to_json(doc.path, _PATHS),
        "investments": [_to_json(e) for e in doc.investments],
        "quadrature_intervals": doc.quadrature_intervals,
    }
    if doc.ages is not None:
        out["estate"] = {"ages": _to_json(doc.ages, _AGES)}
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
    return format(cell, ".9g") if isinstance(cell, float) else str(cell)


def read_cash_flow_csv(text: str) -> CashFlowSchedule:
    """Cash-flow schedule from CSV rows of ``time,amount``.

    One leading byte-order mark (U+FEFF) is ignored. A header is skipped
    when the first row that is not blank has a first cell that is not
    numeric. Messages name rows by their line in the text, blank rows
    counted.

    Raises:
        ScenarioParseError: malformed CSV, a row that cannot be read (the
            message names it), or a schedule that breaks
            :class:`CashFlowSchedule`'s rules.
        NoRootError: the amounts have no sign change.
    """
    try:
        rows = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"))))
    except csv.Error as exc:
        raise ScenarioParseError(f"malformed CSV: {exc}") from None
    # (line number, row) of every row that is not blank
    nonblank = [(line, row) for line, row in enumerate(rows, 1) if any(map(str.strip, row))]
    events = []
    for k, (line, row) in enumerate(nonblank):
        try:
            t = float(row[0])
        except ValueError:
            if k == 0:
                continue  # header row
            raise ScenarioParseError(f"row {line}: time {row[0]!r} is not numeric")
        if len(row) < 2:
            raise ScenarioParseError(f"row {line}: expected time,amount")
        try:
            events.append(CashEvent(time=t, amount=float(row[1])))
        except ValueError as exc:
            raise ScenarioParseError(f"row {line}: {exc}") from None
    try:
        return CashFlowSchedule(events=tuple(events))
    except NoRootError:  # already typed, and not a reading error
        raise
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from None
