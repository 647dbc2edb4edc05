"""Scenario document parsing, serialization, and CSV output."""

import json
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capreturn import (
    ConstantPath,
    GrowthScenario,
    InvestmentEvent,
    NoRootError,
    ReturnPath,
    ReversedPath,
    ScenarioDocument,
    ScenarioParseError,
    ScenarioValidationError,
    SinSquaredPath,
    TabulatedAgeDensity,
    TabulatedPath,
    UniformAgeDensity,
    parse_scenario,
    read_cash_flow_csv,
    serialize_scenario,
    write_table,
)
from capreturn.paths import MAX_REVERSALS
from capreturn.scenario_io import MAX_INTERVALS

MINIMAL = '{"K0": 1.0, "tau": 10.0, "path": {"kind": "constant", "rate": 0.05}}'


def reversed_chain(depth):
    """A constant path inside ``depth`` reversals, as JSON."""
    path = {"kind": "constant", "rate": 0.05}
    for _ in range(depth):
        path = {"kind": "reversed", "inner": path, "horizon": 10.0}
    return path


class TestParse:
    def test_minimal_document_fills_defaults(self):
        doc = parse_scenario(MINIMAL)
        assert doc.initial_capital == 1.0
        assert doc.rotation_length == 10.0
        assert doc.path == ConstantPath(0.05)
        assert doc.investments == ()
        assert doc.quadrature_intervals == 4096
        assert doc.schema_version == 1
        assert doc.ages is None
        assert doc.scenario() == GrowthScenario(1.0, 10.0, ConstantPath(0.05))

    def test_full_document(self):
        text = json.dumps(
            {
                "K0": 2.0,
                "tau": 50.0,
                "path": {
                    "kind": "sin_squared",
                    "mean_rate": 0.05,
                    "shape": 0.5,
                    "full_cycle": 100.0,
                },
                "investments": [{"time": 5.0, "amount": 0.5}],
                "estate": {"ages": {"kind": "uniform"}},
                "quadrature_intervals": 512,
            }
        )
        doc = parse_scenario(text)
        assert doc.path == SinSquaredPath(0.05, 0.5, 100.0)
        assert doc.investments == (InvestmentEvent(5.0, 0.5),)
        assert doc.ages == UniformAgeDensity()
        assert doc.quadrature_intervals == 512
        assert doc.estate() is not None

    def test_negative_tau_names_the_key(self):
        bad = MINIMAL.replace('"tau": 10.0', '"tau": -1')
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(bad)
        assert any(path == "tau" for path, _ in err.value.violations)

    @pytest.mark.parametrize(
        "section, key",
        [
            ({"valuation": {"discount_rate": 0.03, "market_rate": 0.03}}, "valuation"),
            ({"valuation": {"discount_rate": 0.03, "leverage": 1.0}}, "valuation"),
            ({"leverage": {"leverage": 1.0, "equity": 0.5}}, "leverage"),
            ({"valuation": {"discount_rate": 0.03}}, "valuation"),
            ({"leverage": {"leverage": 5.0, "market_rate": 0.02}}, "leverage"),
            ({"valuation": None}, "valuation"),
        ],
        ids=["valuation.market_rate", "valuation.leverage", "leverage.equity",
             "valuation", "leverage", "valuation-null"],
    )
    def test_removed_inputs_are_unknown_keys(self, section, key):
        # d, u and L come from the command line alone, and equity is
        # K0 / (1 + L): a second source in the document could only disagree.
        doc = {"K0": 1.0, "tau": 10.0, "path": {"kind": "constant", "rate": 0.05}}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps({**doc, **section}))
        assert err.value.violations == [(key, "unknown key")]

    def test_all_violations_reported_at_once(self):
        text = json.dumps(
            {
                "K0": -1.0,
                "tau": -2.0,
                "path": {"kind": "constant", "rate": 0.05},
                "bogus": 1,
            }
        )
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(text)
        paths = {path for path, _ in err.value.violations}
        assert {"K0", "tau", "bogus"} <= paths

    def test_unknown_path_kind_rejected(self):
        bad = MINIMAL.replace("constant", "wiggly")
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(bad)
        assert any(path == "path.kind" for path, _ in err.value.violations)

    def test_missing_required_keys(self):
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario("{}")
        paths = {path for path, _ in err.value.violations}
        assert {"K0", "tau", "path"} <= paths

    def test_rotation_must_fit_path_domain(self):
        text = json.dumps(
            {
                "K0": 1.0,
                "tau": 200.0,
                "path": {
                    "kind": "sin_squared",
                    "mean_rate": 0.05,
                    "shape": 0.5,
                    "full_cycle": 100.0,
                },
            }
        )
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(text)
        assert any(path == "tau" for path, _ in err.value.violations)

    def test_event_times_must_be_interior_and_increasing(self):
        text = json.dumps(
            {
                "K0": 1.0,
                "tau": 10.0,
                "path": {"kind": "constant", "rate": 0.05},
                "investments": [
                    {"time": 12.0, "amount": 0.5},
                    {"time": 3.0, "amount": 0.5},
                    {"time": 2.0, "amount": 0.5},
                ],
            }
        )
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(text)
        paths = {path for path, _ in err.value.violations}
        assert "investments[0].time" in paths
        assert "investments" in paths

    def test_booleans_are_not_numbers(self):
        bad = MINIMAL.replace("1.0", "true")
        with pytest.raises(ScenarioValidationError):
            parse_scenario(bad)

    def test_boolean_schema_version_rejected(self):
        bad = {**json.loads(MINIMAL), "schema_version": True}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert err.value.violations == [("schema_version", "unsupported version (expected 1)")]

    def test_syntax_error_reports_position(self):
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario('{"K0": 1.0,,}')
        assert "line 1" in str(err.value)
        assert "column" in str(err.value)

    @pytest.mark.parametrize("value", ["NaN", "-Infinity", "1" + "0" * 400])
    def test_non_finite_number_rejected(self, value):
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(MINIMAL.replace("1.0", value))
        assert err.value.violations == [("K0", "must be a finite number")]

    def test_infinite_knot_names_its_index(self):
        text = MINIMAL.replace(
            '"kind": "constant", "rate": 0.05',
            '"kind": "tabulated", "knots": [[0, 0.01], [10, Infinity]]',
        )
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(text)
        assert err.value.violations == [("path.knots[1][1]", "must be a finite number")]

    def test_quadrature_intervals_capped(self):
        def with_intervals(n):
            return MINIMAL[:-1] + f', "quadrature_intervals": {n}}}'

        assert parse_scenario(with_intervals(MAX_INTERVALS)).quadrature_intervals == 2**20
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(with_intervals(MAX_INTERVALS + 1))
        assert err.value.violations == [("quadrature_intervals", "must be <= 1048576")]
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(with_intervals(1))
        assert err.value.violations == [("quadrature_intervals", "must be >= 2")]

    @pytest.mark.parametrize("text", ["[]", "1", '"K0"', "null"])
    def test_document_that_is_no_object_has_no_key_path(self, text):
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(text)
        assert err.value.violations == [("", "document must be a JSON object")]
        assert str(err.value) == "invalid scenario document: document must be a JSON object"

    @pytest.mark.parametrize(
        "section, message",
        [
            ({"path": {"kind": "sin_squared", "mean_rate": 0.05, "shape": 0.5,
                       "full_cycle": 0}}, ("path", "full_cycle must be > 0")),
            ({"path": {"kind": "tabulated", "knots": [[0, 0.01], [0, 0.02]]}},
             ("path", "knot times must be strictly increasing")),
            ({"estate": {"ages": {"kind": "tabulated", "knots": [[0, 1], [5, -1]]}}},
             ("estate.ages", "density weights must be nonnegative")),
            ({"estate": {"ages": {"kind": "tabulated", "knots": [[0, 1e308], [10, 1e308]]}}},
             ("estate.ages", "density total mass must be finite")),
            ({"path": {"kind": "tabulated", "knots": [[0, 0.01]]}},
             ("path", "tabulated path needs at least two knots")),
            ({"path": reversed_chain(MAX_REVERSALS + 1)},
             ("path", f"reversed paths nest at most {MAX_REVERSALS} deep")),
        ],
    )
    def test_constructor_violation_reported_at_the_object(self, section, message):
        doc = {"K0": 1.0, "tau": 10.0, "path": {"kind": "constant", "rate": 0.05}}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps({**doc, **section}))
        assert err.value.violations == [message]

    @pytest.mark.parametrize("kind", [["constant"], {"constant": 1}, None, 3])
    def test_unhashable_or_missing_kind_rejected(self, kind):
        bad = json.loads(MINIMAL)
        bad["path"]["kind"] = kind
        bad["estate"] = {"ages": {"kind": kind}}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(bad))
        assert err.value.violations == [
            ("path.kind", "must be one of 'constant', 'sin_squared', 'tabulated', 'reversed'"),
            ("estate.ages.kind", "must be one of 'uniform', 'tabulated'"),
        ]

    def test_deep_json_is_a_parse_error(self):
        with pytest.raises(ScenarioParseError, match="nests too deeply"):
            parse_scenario("[" * 5000 + "]" * 5000)

    def test_reversal_chain_beyond_the_recursion_limit_is_a_parse_error(self):
        # Built as text: json.dumps cannot write it. Python 3.11 stops in
        # json.loads, later versions in the descent through "inner".
        n = 1200
        head = '{"kind": "reversed", "horizon": 10, "inner": '
        path = head * n + '{"kind": "constant", "rate": 0}' + "}" * n
        with pytest.raises(ScenarioParseError, match="nests too deeply"):
            parse_scenario('{"K0": 1, "tau": 10, "path": ' + path + "}")

    def test_chain_too_deep_to_build_is_a_parse_error(self, monkeypatch):
        # The descent through "inner" as it runs where json.loads reads
        # deeper than the recursion limit of Python calls (Python 3.12+).
        raw = {"K0": 1.0, "tau": 10.0, "path": reversed_chain(5000)}
        monkeypatch.setattr(json, "loads", lambda text: raw)
        with pytest.raises(ScenarioParseError, match="nests too deeply"):
            parse_scenario("{}")

    def test_deep_reversal_chain_is_reported_under_path(self):
        doc = {"K0": 1.0, "tau": 10.0, "path": reversed_chain(500)}
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(json.dumps(doc))
        [(key, message)] = err.value.violations
        assert key == "path" + ".inner" * (500 - MAX_REVERSALS - 1)
        assert message == f"reversed paths nest at most {MAX_REVERSALS} deep"

    def test_longest_reversal_chain_is_accepted(self):
        doc = {"K0": 1.0, "tau": 10.0, "path": reversed_chain(MAX_REVERSALS)}
        assert parse_scenario(json.dumps(doc)).path._reversals == MAX_REVERSALS


def sample_documents():
    hump = SinSquaredPath(0.05, 0.5, 100.0)
    return [
        ScenarioDocument(1.0, 10.0, ConstantPath(0.05)),
        ScenarioDocument(2.5, 80.0, hump),
        ScenarioDocument(1.0, 100.0, hump, quadrature_intervals=512),
        ScenarioDocument(
            1.0, 10.0, ConstantPath(0.04), investments=(InvestmentEvent(5.0, 0.5),)
        ),
        ScenarioDocument(
            1.0,
            10.0,
            TabulatedPath(((0.0, 0.02), (5.0, 0.06), (10.0, 0.01))),
        ),
        ScenarioDocument(1.0, 60.0, ReversedPath(hump, 60.0)),
        ScenarioDocument(1.0, 100.0, hump, ages=UniformAgeDensity()),
        ScenarioDocument(
            1.0,
            100.0,
            hump,
            ages=TabulatedAgeDensity(((20.0, 0.0), (50.0, 1.0), (80.0, 0.0))),
        ),
        ScenarioDocument(
            1.0,
            10.0,
            ReversedPath(TabulatedPath(((0.0, 0.02), (5.0, 0.06), (10.0, 0.01))), 10.0),
        ),
        ScenarioDocument(
            1.0,
            10.0,
            TabulatedPath(((0.0, 0.02), (2.5, 0.09), (6.0, 0.04), (10.0, 0.01))),
            investments=(InvestmentEvent(1.5, 0.5), InvestmentEvent(7.0, -0.25)),
        ),
        ScenarioDocument(1.0, 60.0, ReversedPath(ReversedPath(hump, 60.0), 60.0)),
        ScenarioDocument(
            1.0,
            60.0,
            ReversedPath(hump, 60.0),
            ages=TabulatedAgeDensity(((0.0, 1.0), (30.0, 2.0), (60.0, 0.5))),
            quadrature_intervals=64,
        ),
        ScenarioDocument(1.0, 10.0, ConstantPath(-0.01), investments=(InvestmentEvent(9.5, 3.0),)),
    ]


@dataclass(frozen=True)
class UnregisteredPath(ReturnPath):
    """A path kind the schema does not know."""


class TestRoundTrip:
    @pytest.mark.parametrize("doc", sample_documents())
    def test_parse_inverts_serialize(self, doc):
        assert parse_scenario(serialize_scenario(doc)) == doc

    def test_serialization_is_deterministic(self):
        doc = sample_documents()[1]
        assert serialize_scenario(doc) == serialize_scenario(doc)

    def test_unregistered_kind_is_not_serialized(self):
        doc = ScenarioDocument(1.0, 10.0, UnregisteredPath())
        with pytest.raises(TypeError, match="cannot serialize"):
            serialize_scenario(doc)


# JSON shaped like scenario documents: objects of every kind and section
# of the schema, whose values are usually of the right type, and otherwise
# nested lists and objects, booleans, null, strings, non-finite floats or
# integers beyond float range.
PATH_KINDS = {
    "constant": ("rate",),
    "sin_squared": ("mean_rate", "shape", "full_cycle"),
    "tabulated": ("knots",),
    "reversed": ("inner", "horizon"),
}
KEYS = sorted({"kind", "ages", "time", "amount",
               *(k for keys in PATH_KINDS.values() for k in keys)})


def _usually(good, other):
    """``good`` nine times in ten, ``other`` otherwise."""
    return st.sampled_from([good] * 9 + [other]).flatmap(lambda chosen: chosen)


NUMBERS = _usually(
    st.one_of(st.integers(-1, 30), st.floats(-1.0, 30.0)),
    st.sampled_from([2**20, 2**20 + 1, 10**400, math.nan, math.inf, -math.inf]),
)
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=2),
              st.sampled_from([*PATH_KINDS, "uniform"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2), st.dictionaries(st.sampled_from(KEYS), inner, max_size=2)
    ),
    max_leaves=4,
)
KNOTS = st.lists(
    st.tuples(st.floats(0.0, 30.0), NUMBERS).map(list),
    min_size=1, max_size=4, unique_by=lambda pair: pair[0],
).map(sorted)


def _mostly(good):
    """``good`` nine times in ten, JSON of any other shape otherwise."""
    return _usually(good, JUNK)


def _object(keys, kind=None):
    """An object with ``keys`` (and ``kind``), each value mostly of the
    right type; one in ten has only some keys and maybe a stray one."""
    good = {"knots": KNOTS, "inner": st.deferred(lambda: PATHS), "ages": st.deferred(lambda: AGES)}
    fields = {k: _mostly(good.get(k, NUMBERS)) for k in keys}
    head = {} if kind is None else {"kind": kind}
    whole = st.fixed_dictionaries({**head, **fields})
    partial = st.fixed_dictionaries(head, optional={**fields, "bogus": JUNK})
    return _usually(whole, partial)


AGES = _mostly(
    st.one_of(_object((), st.just("uniform")), _object(("knots",), st.just("tabulated")))
)
PATHS = _mostly(
    st.one_of(
        *(_object(keys, st.just(kind)) for kind, keys in PATH_KINDS.items()),
        _object(("rate",), JUNK),
    )
)
DOCUMENTS = st.fixed_dictionaries(
    {"K0": _mostly(NUMBERS), "tau": _mostly(NUMBERS), "path": PATHS},
    optional={
        "investments": _mostly(st.lists(_mostly(_object(("time", "amount"))), max_size=3)),
        "estate": _mostly(_object(("ages",))),
        "quadrature_intervals": _mostly(st.integers(0, 2**20 + 1)),
        "schema_version": _mostly(st.just(1)),
    },
)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_any_document_is_built_or_rejected_by_key(raw):
    try:
        doc = parse_scenario(json.dumps(raw))
    except ScenarioValidationError as exc:
        assert exc.violations and all(isinstance(key, str) for key, _ in exc.violations)
        return
    assert isinstance(doc, ScenarioDocument)
    assert parse_scenario(serialize_scenario(doc)) == doc


class TestWriteTable:
    def test_single_row(self):
        text = write_table([[1.0, "x"]], ["a", "b"])
        assert text == "a,b\r\n1,x\r\n"

    def test_header_only(self):
        assert write_table([], ["a", "b", "c"]) == "a,b,c\r\n"

    def test_nine_significant_digits(self):
        text = write_table([[0.123456789123456]], ["v"])
        assert text.splitlines()[1] == "0.123456789"

    def test_deterministic_bytes(self):
        rows = [[1.0 / 3.0, 2], [9.87654321e-7, 3]]
        assert write_table(rows, ["x", "n"]) == write_table(rows, ["x", "n"])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            write_table([[1.0], [1.0, 2.0]], ["a", "b"])

    def test_quoting_commas(self):
        text = write_table([["a,b", 1]], ["s", "n"])
        assert text.splitlines()[1] == '"a,b",1'


class TestCashFlowCsv:
    def test_with_header(self):
        sched = read_cash_flow_csv("time,amount\n0,-1\n2,1.21\n")
        assert [e.amount for e in sched.events] == [-1.0, 1.21]

    def test_without_header(self):
        sched = read_cash_flow_csv("0,-1\n1,1\n")
        assert [e.time for e in sched.events] == [0.0, 1.0]

    @pytest.mark.parametrize("header", ["", "time,amount\n"], ids=["headerless", "header"])
    def test_leading_byte_order_mark_is_ignored(self, header):
        rows = header + "0,-1\n1,0.5\n2,0.7\n3,-0.1\n"
        assert read_cash_flow_csv("\ufeff" + rows) == read_cash_flow_csv(rows)
        assert len(read_cash_flow_csv("\ufeff" + rows).events) == 4

    def test_header_after_blank_lines(self):
        sched = read_cash_flow_csv("\n , \ntime,amount\n0,-1\n1,1.1\n")
        assert [(e.time, e.amount) for e in sched.events] == [(0.0, -1.0), (1.0, 1.1)]

    def test_second_nonblank_row_is_no_header(self):
        with pytest.raises(ScenarioParseError, match="row 4: time 'time' is not numeric"):
            read_cash_flow_csv("\n0,-1\n\ntime,amount\n1,1\n")

    def test_rows_keep_their_line_numbers_after_blank_lines(self):
        with pytest.raises(ScenarioParseError, match="row 5: expected time,amount"):
            read_cash_flow_csv("\ntime,amount\n0,-1\n\n1\n")

    def test_all_positive_has_no_rate(self):
        with pytest.raises(NoRootError):
            read_cash_flow_csv("time,amount\n0,1\n1,2\n")

    @pytest.mark.parametrize(
        "text",
        ["time,amount\n0,-1\n1,x\n", "time,amount\n0,-1\n1\n", "time,amount\n0,-1\nx,1\n",
         "time,amount\n0,-1\n", "-1,-1\n1,2\n", "1,-1\n0,2\n", '"' + "x" * 200_000 + '",1\n'],
        ids=["cell", "short-row", "time", "one-event", "negative-time", "decreasing",
             "huge-field"],
    )
    def test_unreadable_text_is_a_parse_error(self, text):
        with pytest.raises(ScenarioParseError):
            read_cash_flow_csv(text)

    def test_non_finite_number_names_its_row(self):
        with pytest.raises(ValueError, match="row 3: time and amount must be finite"):
            read_cash_flow_csv("time,amount\n0,-1\n1,nan\n")
