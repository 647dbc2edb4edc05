"""Command-line behavior: sweeps, optima, cash-flow rate reports."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from capreturn import (
    GrowthScenario,
    ReturnPath,
    SinSquaredPath,
    growth_cycle_irr,
    npv,
    rroc,
    with_rotation,
)
import capreturn
from capreturn import cli
from capreturn import growth as growth_module
from capreturn import optimize as optimize_module
from capreturn.cli import main

DATA = Path(__file__).parent / "data"
MEAN, SHAPE, CYCLE = 0.05, 0.5, 100.0

HUMP_DOC = {
    "K0": 1.0,
    "tau": 100.0,
    "path": {
        "kind": "sin_squared",
        "mean_rate": 0.05,
        "shape": 0.5,
        "full_cycle": 100.0,
    },
}

CONSTANT_DOC = {
    "K0": 1.0,
    "tau": 10.0,
    "path": {"kind": "constant", "rate": 0.05},
}

EVENTS_DOC = {
    "K0": 1.0,
    "tau": 10.0,
    "path": {"kind": "tabulated", "knots": [[0.0, 0.01], [10.0, 0.09]]},
    "investments": [{"time": 2.0, "amount": 0.5}],
}

# exp(100 * 8) is beyond float range: capital and present values overflow.
FAST_DOC = {"K0": 1, "tau": 100, "path": {"kind": "constant", "rate": 8.0}}


def reversed_chain(depth):
    """A constant path inside ``depth`` reversals, as JSON."""
    path = CONSTANT_DOC["path"]
    for _ in range(depth):
        path = {"kind": "reversed", "inner": path, "horizon": 10.0}
    return path


@pytest.fixture
def hump_file(tmp_path):
    p = tmp_path / "hump.json"
    p.write_text(json.dumps(HUMP_DOC))
    return str(p)


@pytest.fixture
def constant_file(tmp_path):
    p = tmp_path / "constant.json"
    p.write_text(json.dumps(CONSTANT_DOC))
    return str(p)


@pytest.fixture
def events_file(tmp_path):
    p = tmp_path / "events.json"
    p.write_text(json.dumps(EVENTS_DOC))
    return str(p)


@pytest.fixture
def fast_file(tmp_path):
    p = tmp_path / "fast.json"
    p.write_text(json.dumps(FAST_DOC))
    return str(p)


def read_sweep_csv(text):
    data_lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
    return rows[0], rows[1:]


class TestSweep:
    def test_final_row_irr_converges_to_the_mean(self, hump_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--scenario", hump_file,
                "--tau-steps", "200", "--metrics", "irr,rroc",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_sweep_csv(out.read_text())
        assert header == ["tau", "mean_rate", "irr", "rroc"]
        assert len(rows) == 200
        assert float(rows[-1][header.index("irr")]) == pytest.approx(MEAN, abs=1e-6)

    def test_constant_path_irr_equals_rroc(self, constant_file, capsys):
        rc = main(
            ["sweep", "--scenario", constant_file, "--tau-steps", "20",
             "--metrics", "irr,rroc"]
        )
        assert rc == 0
        header, rows = read_sweep_csv(capsys.readouterr().out)
        for row in rows:
            irr = float(row[header.index("irr")])
            s = float(row[header.index("rroc")])
            assert abs(irr - s) < 1e-9

    def test_npv_metric_emits_one_column_per_discount_rate(self, hump_file, capsys):
        rc = main(
            ["sweep", "--scenario", hump_file, "--tau-steps", "5",
             "--metrics", "npv",
             "--d", "0.025", "--d", "0.05", "--d", "0.075", "--d", "0.1"]
        )
        assert rc == 0
        header, rows = read_sweep_csv(capsys.readouterr().out)
        assert header == ["tau", "mean_rate", "npv_d0.025", "npv_d0.05",
                          "npv_d0.075", "npv_d0.1"]
        assert len(rows) == 5

    def test_rows_reproduce_single_point_calls(self, hump_file, capsys):
        rc = main(
            ["sweep", "--scenario", hump_file, "--tau-steps", "10",
             "--metrics", "irr,rroc,npv", "--d", "0.03"]
        )
        assert rc == 0
        header, rows = read_sweep_csv(capsys.readouterr().out)
        base = GrowthScenario(1.0, CYCLE, SinSquaredPath(MEAN, SHAPE, CYCLE))
        for row in rows[::3]:
            tau = float(row[0])
            at_tau = with_rotation(base, tau)
            assert row[header.index("irr")] == format(
                growth_cycle_irr(at_tau), ".9g"
            )
            assert row[header.index("rroc")] == format(rroc(at_tau), ".9g")
            assert row[header.index("npv_d0.03")] == format(
                npv(at_tau, 0.03), ".9g"
            )

    def test_repeated_runs_are_byte_identical(self, hump_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--scenario", hump_file, "--tau-steps", "50",
                "--metrics", "irr,rroc,rroe", "--u", "0.02", "--u", "0.05"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_provenance_block_echoes_inputs(self, hump_file, capsys):
        rc = main(["sweep", "--scenario", hump_file, "--tau-steps", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("# scenario ")
        assert lines[1].startswith("# settings ")
        echoed = json.loads(lines[0].removeprefix("# scenario "))
        assert echoed["K0"] == 1.0

    def test_npv_without_discount_rate_fails(self, hump_file, capsys):
        rc = main(["sweep", "--scenario", hump_file, "--metrics", "npv"])
        assert rc == 1
        assert "requires" in capsys.readouterr().err

    def test_unknown_metric_fails(self, hump_file, capsys):
        rc = main(["sweep", "--scenario", hump_file, "--metrics", "alpha"])
        assert rc == 1

    def test_invalid_scenario_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"K0": -1, "tau": 10, "path": {"kind": "constant", "rate": 0.05}}')
        rc = main(["sweep", "--scenario", str(bad)])
        assert rc == 1
        assert "K0" in capsys.readouterr().err

    def test_missing_file_fails(self, capsys):
        rc = main(["sweep", "--scenario", "/nonexistent.json"])
        assert rc == 1

    def test_nan_in_scenario_fails(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"K0": NaN, "tau": 10, "path": {"kind": "constant", "rate": 0.05}}')
        assert main(["sweep", "--scenario", str(bad), "--metrics", "rroc"]) == 1
        assert "K0: must be a finite number" in capsys.readouterr().err

    def test_capital_overflow_fails_without_nan_cells(self, fast_file, capsys):
        assert main(["sweep", "--scenario", fast_file, "--metrics", "rroc"]) == 1
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert "float range" in captured.err

    def test_present_value_overflow_is_one_error_line(self, fast_file, capsys):
        argv = ["sweep", "--scenario", fast_file, "--metrics", "npv,omega",
                "--d", "0.05", "--u", "0.02"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "error: " in err[0] and "float range" in err[0]

    def test_rate_beyond_float_range_is_one_error_line(self, tmp_path, capsys):
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps(
            {"K0": 1, "tau": 10, "path": {"kind": "constant", "rate": 1e308}}
        ))
        assert main(["sweep", "--scenario", str(doc), "--metrics", "irr"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # The rows up to tau = 1.75 fit in a float; 1.8 * 1e308 does not.
        assert captured.err.splitlines() == [
            "capreturn sweep: error: at tau=1.8: "
            "cumulative return to t=1.8 is beyond float range"
        ]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--metrics", "rroe", "--u", "1e308", "--L", "10", "--tau-steps", "3"],
             "at tau=26.6667: return on equity is beyond float range"),
            (["optimize", "--objective", "rroe", "--u", "1e308", "--L", "10"],
             "return on equity is beyond float range"),
            (["sweep", "--metrics", "omega", "--u", "1e308", "--L", "-0.5", "--tau-steps", "3"],
             "at tau=26.6667: growth factor exp(inf) is beyond float range"),
        ],
        ids=["sweep-rroe", "optimize-rroe", "sweep-omega"],
    )
    def test_market_rate_overflow_is_one_error_line(self, tmp_path, capsys, argv, message):
        # Finite flags whose equity return or growth factor is not finite.
        doc = tmp_path / "cycle80.json"
        doc.write_text(json.dumps({"K0": 1, "tau": 80, "path": {
            "kind": "sin_squared", "mean_rate": 0.05, "shape": 0.3, "full_cycle": 80}}))
        assert main([argv[0], "--scenario", str(doc), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"capreturn {argv[0]}: error: {message}"]

    @pytest.mark.parametrize("flag", ["--d", "--u", "--L", "--tau-min", "--tau-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "abc"])
    def test_non_finite_flag_rejected(self, hump_file, capsys, flag, value):
        argv = ["sweep", "--scenario", hump_file, "--metrics", "npv,rroe",
                "--d", "0.03", "--u", "0.02", flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: '{value}' is not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            # The cap is checked before the grid is built.
            (["--tau-steps", str(2**20 + 1)], "--tau-steps must be between 2 and 1048576"),
            (["--tau-min", "5", "--tau-max", "5"], "need 0 < --tau-min < --tau-max"),
        ],
        ids=["tau-steps", "empty-span"],
    )
    def test_bad_grid_is_one_error_line(self, hump_file, capsys, flags, message):
        assert main(["sweep", "--scenario", hump_file, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"capreturn sweep: error: {message}"]


class TestOptimize:
    def test_rroc_peaks_before_the_cycle_end_and_before_irr(self, hump_file, capsys):
        assert main(["optimize", "--scenario", hump_file, "--objective", "rroc"]) == 0
        rroc_line = capsys.readouterr().out.splitlines()[0]
        tau_rroc = float(rroc_line.split("tau* = ")[1].split(",")[0])
        assert main(["optimize", "--scenario", hump_file, "--objective", "irr"]) == 0
        irr_line = capsys.readouterr().out.splitlines()[0]
        tau_irr = float(irr_line.split("tau* = ")[1].split(",")[0])
        assert tau_rroc < CYCLE
        assert tau_rroc < tau_irr

    def test_rroe_optimum_ignores_the_market_rate(self, hump_file, capsys):
        rc = main(
            ["optimize", "--scenario", hump_file, "--objective", "rroe",
             "--L", "1.0", "--u", "0.0", "--u", "0.025", "--u", "0.05", "--u", "0.1"]
        )
        assert rc == 0
        stars = [
            float(line.split("tau* = ")[1].split(",")[0])
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("objective rroe")
        ]
        assert len(stars) == 4
        assert max(stars) - min(stars) <= CYCLE / 200 + 1e-9

    def test_npv_optimum_moves_with_the_discount_rate(self, hump_file, capsys):
        rc = main(
            ["optimize", "--scenario", hump_file, "--objective", "npv",
             "--d", "0.025", "--d", "0.05"]
        )
        assert rc == 0
        stars = [
            float(line.split("tau* = ")[1].split(",")[0])
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("objective npv")
        ]
        assert len(stars) == 2
        assert abs(stars[0] - stars[1]) > CYCLE / 200

    def test_report_shows_competing_criteria(self, hump_file, capsys):
        rc = main(
            ["optimize", "--scenario", hump_file, "--objective", "rroc",
             "--d", "0.03", "--u", "0.02"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rroc = " in out
        assert "irr  = " in out
        assert "npv(d=0.03)" in out
        assert "rroe(L=1, u=0.02)" in out

    def test_optimum_keeping_an_event_reports_without_irr(self, events_file, capsys):
        argv = ["optimize", "--scenario", events_file, "--objective", "rroc"]
        assert main(argv + ["--d", "0.03", "--u", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "rroc = " in out
        assert "rroe(L=1, u=0.02)" in out
        assert "irr" not in out
        assert "npv" not in out


def stars(out: str) -> list[float]:
    """The tau* of every objective line of an optimize report."""
    return [
        float(line.split("tau* = ")[1].split(",")[0])
        for line in out.splitlines()
        if line.startswith("objective")
    ]


OBJECTIVE_FLAGS = {
    "rroc": [],
    "irr": [],
    "npv": ["--d", "0.025", "--d", "0.05"],
    "rroe": ["--u", "0.02"],
}


class TestOptimizeSearch:
    """Every objective goes through one pass over the longest rotation
    and a root of its first-order condition."""

    @pytest.mark.parametrize("objective", OBJECTIVE_FLAGS)
    def test_few_time_average_passes(self, hump_file, capsys, monkeypatch, objective):
        calls = []
        original = ReturnPath.time_average_rate

        def counted(path, horizon, **kwargs):
            calls.append(horizon)
            return original(path, horizon, **kwargs)

        monkeypatch.setattr(ReturnPath, "time_average_rate", counted)
        argv = ["optimize", "--scenario", hump_file, "--objective", objective]
        assert main(argv + OBJECTIVE_FLAGS[objective]) == 0
        # The grid scan with golden-section refinement took 238 per objective.
        per_objective = len(calls) / len(stars(capsys.readouterr().out))
        assert per_objective <= 12

    @pytest.mark.parametrize(
        "objective, flags",
        [("rroc", []), ("irr", []), ("rroe", ["--u", "0.02"]), ("npv", ["--d", "0.05"])],
    )
    def test_flat_objective_reports_the_shortest_rotation(self, constant_file, capsys,
                                                          objective, flags):
        # Rate 0.05 everywhere: every rotation is optimal for rroc, rroe and
        # irr, and at d = 0.05 every present value is zero.
        argv = ["optimize", "--scenario", constant_file, "--objective", objective]
        assert main(argv + flags) == 0
        assert stars(capsys.readouterr().out) == [0.05]  # tau-max / tau-steps

    @pytest.mark.parametrize("objective", ["irr", "npv"])
    @pytest.mark.parametrize("falling", [False, True], ids=["rising", "falling"])
    def test_event_scenario_needs_an_investment_free_cycle(self, tmp_path, capsys,
                                                           objective, falling):
        doc = dict(EVENTS_DOC)
        if falling:  # both optima lie before the event, which only the longest rotation keeps
            doc["path"] = {"kind": "tabulated", "knots": [[0.0, 0.09], [10.0, 0.01]]}
            doc["investments"] = [{"time": 9.0, "amount": 0.5}]
        scenario = tmp_path / "events.json"
        scenario.write_text(json.dumps(doc))
        argv = ["optimize", "--scenario", str(scenario), "--objective", objective,
                "--d", "0.03"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "capreturn optimize: error: closed forms (IRR, present values, "
            "break-even rate) need an investment-free scenario\n"
        )

    def test_fast_growth_irr_is_flat(self, fast_file, capsys):
        # The IRR needs the cumulative return only, which stays finite.
        assert main(["optimize", "--scenario", fast_file, "--objective", "irr"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "objective irr: tau* = 0.5, value = 8"

    def test_failing_report_prints_nothing(self, constant_file, capsys):
        # The optimum is found; its competing criteria overflow.
        argv = ["optimize", "--scenario", constant_file, "--objective", "irr",
                "--tau-max", "1e300"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "capreturn optimize: error: capital beyond float range at t=1.2207e+294"
        ]

    @pytest.mark.parametrize(
        "objective, flags", [("rroc", []), ("irr", []), ("npv", ["--d", "0.1"])]
    )
    def test_flat_objective_at_a_large_cumulative_return(self, tmp_path, capsys,
                                                         objective, flags):
        # At d = 0.1 every present value is zero, to a rounding that grows
        # with the cumulative return (30 at tau = 300).
        doc = tmp_path / "long.json"
        doc.write_text(json.dumps(
            {"K0": 1, "tau": 300, "path": {"kind": "constant", "rate": 0.1}}
        ))
        argv = ["optimize", "--scenario", str(doc), "--objective", objective]
        assert main(argv + flags) == 0
        assert stars(capsys.readouterr().out) == [1.5]  # tau-max / tau-steps

    def test_fast_growth_npv_is_a_typed_error(self, fast_file, capsys):
        argv = ["optimize", "--scenario", fast_file, "--objective", "npv", "--d", "0.05"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1
        assert "error: " in err[0] and "float range" in err[0]


class TestOptimizeReport:
    """Every number printed at a tau* comes from one ``rroc`` pass and, for
    a cycle without events, one time average there."""

    RATES = ["--d", "0.03", "--d", "0.06", "--u", "0.01", "--u", "0.02"]

    @pytest.mark.parametrize(
        "objective, searches", [("npv", 0), ("irr", 0), ("rroc", 1), ("rroe", 1)]
    )
    def test_one_rroc_pass_and_one_time_average_per_optimum(self, capsys, monkeypatch,
                                                            objective, searches):
        averages, passes = [], []
        original_return = ReturnPath.cumulative_return
        original_segments = growth_module._segments

        def counted_return(path, t, **kwargs):
            averages.append(t)
            return original_return(path, t, **kwargs)

        def counted_segments(scenario, cuts, intervals):
            passes.append(scenario.rotation_length)
            return original_segments(scenario, cuts, intervals)

        optimize_module._rroc_argmax.cache_clear()  # the rroc and rroe search pass counts
        monkeypatch.setattr(ReturnPath, "cumulative_return", counted_return)
        monkeypatch.setattr(growth_module, "_segments", counted_segments)
        monkeypatch.setattr(optimize_module, "_segments", counted_segments)
        argv = ["optimize", "--scenario", str(DATA / "hump.json"), "--objective", objective]
        assert main(argv + self.RATES) == 0
        optima = sorted(set(stars(capsys.readouterr().out)))
        # A time average per printed line would make 8, 4, 3 and 6.
        assert len(averages) == {"npv": 2, "irr": 1, "rroc": 1, "rroe": 1}[objective]
        assert sorted(averages) == pytest.approx(optima, rel=1e-8)
        assert sorted(passes) == pytest.approx(optima + [CYCLE] * searches, rel=1e-8)

    def test_discount_rates_share_one_search_pass(self, capsys, monkeypatch):
        nodes = []
        original = growth_module.cumulative_simpson_nodes

        def counted(values, steps):
            nodes.append(values.size)
            return original(values, steps)

        optimize_module._cycle_returns.cache_clear()
        monkeypatch.setattr(growth_module, "cumulative_simpson_nodes", counted)
        monkeypatch.setattr(optimize_module, "cumulative_simpson_nodes", counted)
        argv = ["optimize", "--scenario", str(DATA / "hump.json"), "--objective", "npv",
                "--d", "0.03", "--d", "0.06", "--d", "0.09"]
        assert main(argv) == 0
        assert len(set(stars(capsys.readouterr().out))) == 3
        # One pass over the longest rotation, cut at the grid, is searched
        # at every rate; then one rroc pass values each optimum.
        assert nodes == [4401, 4097, 4097, 4097]

    def test_lines_are_not_looked_up_by_label(self, capsys):
        # Both rates print as d=0.03; each line keeps its own value.
        argv = ["optimize", "--scenario", str(DATA / "hump.json"), "--objective", "rroc",
                "--d", "0.03", "--d", "0.0300000001"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("  npv")] == [
            "  npv(d=0.03) = 4.23969796",
            "  npv(d=0.03) = 4.23969792",
        ]

    def test_nonpositive_discount_rate_in_the_report(self, capsys):
        argv = ["optimize", "--scenario", str(DATA / "hump.json"), "--objective", "rroc",
                "--d", "0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "capreturn optimize: error: discount rate must be > 0"
        ]


class TestUnreadableInput:
    """Input that cannot be read ends in one error line and exit 1."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("time,amount\n0,-1\n1,x\n", "row 3: could not convert string to float: 'x'"),
            ("time,amount\n0,-1\n1\n", "row 3: expected time,amount"),
            ("time,amount\n0,-1\n5,1,500\n", "row 3: expected time,amount"),
            ("time,amount\n0,-1\nx,1\n", "row 3: time 'x' is not numeric"),
            ("time,amount\n0,-1\n", "schedule needs at least two events"),
            ("time,amount\n-1,-1\n1,2\n", "event times must be nonnegative"),
            ("time,amount\n1,-1\n0,2\n", "event times must be nondecreasing"),
            ("0,-1\n0,2\n", "all events occur at a single instant"),
            ("1,-1\n1,1\n", "all amounts cancel; every rate is a root"),
            ("0,-1\n1,1\n1,-1\n", "events collapse to a single grid instant"),
            ('"' + "x" * 200_000 + '",1\n',
             "malformed CSV: field larger than field limit (131072)"),
            ("time,amount\n0,-1\n1,0.5\n1e19,1\n",
             "discretized polynomial degree 1e+19 exceeds 4096; "
             "event times are too finely incommensurate"),
            ("time,amount\n0,-1\n1.5e-9,0.5\n1e300,1\n",
             "event time 1e+300 is not a multiple of the base step 1.03874e-09"),
        ],
        ids=["cell", "short-row", "third-cell", "time", "one-event", "negative-time",
             "decreasing", "one-instant", "cancel", "one-grid-instant", "huge-field",
             "degree-beyond-int64", "time-beyond-float-steps"],
    )
    def test_bad_cash_flows(self, tmp_path, capsys, text, message):
        flows = tmp_path / "flows.csv"
        flows.write_text(text)
        assert main(["irr", "--cashflows", str(flows)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"capreturn irr: error: {message}"]

    @pytest.mark.parametrize("command", ["sweep", "optimize", "irr"])
    def test_non_utf8_file(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("time,amount\n0,-1\n1,2 \u20ac\n".encode("cp1252"))
        flag = "--cashflows" if command == "irr" else "--scenario"
        argv = [command, flag, str(bad)] + (["--objective", "rroc"] if command == "optimize" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            f"capreturn {command}: error: {bad}: not UTF-8 text (invalid start byte at byte 21)"
        ]


    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("sweep", '{"K0": ' + "[" * 5000 + "]" * 5000 + ', "tau": 10}',
             "document nests too deeply"),
            ("optimize", json.dumps({**CONSTANT_DOC, "path": reversed_chain(500)}),
             "invalid scenario document: path: reversed paths nest at most 16 deep"),
            ("sweep", json.dumps({**CONSTANT_DOC, "valuation": {"discount_rate": 0.03}}),
             "invalid scenario document: valuation: unknown key"),
            ("sweep", json.dumps({**CONSTANT_DOC, "leverage": {"leverage": 5}}),
             "invalid scenario document: leverage: unknown key"),
        ],
        ids=["deep-json", "deep-reversal", "valuation", "leverage"],
    )
    def test_bad_scenario(self, tmp_path, capsys, command, text, message):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        flag = "--metrics" if command == "sweep" else "--objective"
        assert main([command, "--scenario", str(doc), flag, "rroc"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"capreturn {command}: error: {message}"]


def test_an_untyped_error_is_not_reported_as_input_error(hump_file, monkeypatch):
    # Every input error is a CapReturnError or OSError; anything else is a
    # fault of the program and keeps its traceback.
    def broken(args):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "_cmd_sweep", broken)
    with pytest.raises(ValueError, match="not an input error"):
        main(["sweep", "--scenario", hump_file])


def test_parser_is_reused_unchanged(hump_file, capsys):
    # The parser is built once per process. Calls through it print what
    # calls through a fresh one print, after an argparse error too, and
    # an appended flag does not carry over to the next call.
    runs = [
        ["sweep", "--scenario", hump_file, "--tau-steps", "3", "--metrics", "npv", "--d", "0.03"],
        ["sweep", "--scenario", hump_file, "--d", "nan"],
        ["sweep", "--scenario", hump_file, "--tau-steps", "3", "--metrics", "npv", "--d", "0.05"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0]
    assert [run(argv) for argv in runs] == fresh
    assert cli._build_parser() is cli._build_parser()


class TestIrrCommand:
    def test_breakeven(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("time,amount\n0,-1\n1,1\n")
        assert main(["irr", "--cashflows", str(flows)]) == 0
        out = capsys.readouterr().out
        assert "principal   : 0" in out or "principal   : -0" in out

    def test_header_after_a_blank_line(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("\ntime,amount\n0,-1\n1,1.1\n")
        assert main(["irr", "--cashflows", str(flows)]) == 0
        assert f"principal   : {math.log(1.1):.9g}" in capsys.readouterr().out

    def test_two_real_roots_printed(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("time,amount\n0,-1\n1,2.3\n2,-1.32\n")
        assert main(["irr", "--cashflows", str(flows)]) == 0
        out = capsys.readouterr().out
        assert out.count("real root") == 2
        assert format(math.log(1.1), ".9g") in out
        assert format(math.log(1.2), ".9g") in out
        assert "residual" in out

    def test_no_real_root_printed(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("0,-1\n1,2\n2,-1.5\n")
        assert main(["irr", "--cashflows", str(flows)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "complex     : 2" in lines
        assert "principal   : none (no real root)" in lines
        assert not any(line.startswith("real root") for line in lines)

    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys):
        rows = "0,-1\n1,0.5\n2,0.7\n3,-0.1\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(rows, encoding="utf-8")
        marked.write_text("\ufeff" + rows, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["irr", "--cashflows", str(plain)]) == 0
        expected = capsys.readouterr().out
        assert main(["irr", "--cashflows", str(marked)]) == 0
        assert capsys.readouterr().out == expected
        assert "principal   : 0.0656323183" in expected

    def test_amounts_near_float_max_keep_their_root(self, tmp_path, capsys):
        # An IRR does not move when every amount is scaled alike: these rows
        # print the root of the same rows divided by 1e308.
        rows = ((2.5, -1.4695472271092084e308), (8.5, -5.54695067909098e307),
                (15.5, 1.144090318535321e308), (16.0, 1.0995923684745667e308))
        principals = []
        for divisor in (1.0, 1e308):
            flows = tmp_path / "flows.csv"
            flows.write_text("time,amount\n" + "".join(f"{t!r},{a / divisor!r}\n" for t, a in rows))
            assert main(["irr", "--cashflows", str(flows)]) == 0
            principals += [line for line in capsys.readouterr().out.splitlines()
                           if line.startswith("principal")]
        assert principals == ["principal   : 0.00884824405"] * 2

    def test_root_whose_discounted_amounts_leave_float_range_is_printed(self, tmp_path, capsys):
        # Discounted at the root, these amounts reach 1e324; the same rows
        # divided by 1e308 print the same principal root.
        rows = ((97.0, 1.6107519317932944e308), (100.0, -5.110448605383279e307))
        principals = []
        for divisor in (1.0, 1e308):
            flows = tmp_path / "flows.csv"
            flows.write_text("time,amount\n" + "".join(f"{t!r},{a / divisor!r}\n" for t, a in rows))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["irr", "--cashflows", str(flows)]) == 0
            principals += [line for line in capsys.readouterr().out.splitlines()
                           if line.startswith("principal")]
        assert principals == ["principal   : -0.382666337"] * 2

    def test_root_whose_discount_factors_leave_float_range_is_printed(self, tmp_path, capsys):
        # exp(-r * t) is e^4542 at the root ln(b/-a)/2.
        flows = tmp_path / "flows.csv"
        flows.write_text("time,amount\n54,-3.344584784795652e-214\n56,1.1951654166811383e-284\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["irr", "--cashflows", str(flows)]) == 0
        assert "principal   : -81.1050072" in capsys.readouterr().out.splitlines()

    def test_no_spurious_root_printed(self, tmp_path, capsys):
        # One sign change: no real rate but ln(-b/a)/8 = 55.5248342.
        flows = tmp_path / "flows.csv"
        flows.write_text("time,amount\n1,2.375e-115\n9,-1.944e+78\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["irr", "--cashflows", str(flows)]) == 0
        for line in capsys.readouterr().out.splitlines():
            if line.startswith(("principal", "real root")) and "none" not in line:
                assert line.split(":")[1].split()[0] == "55.5248342", line

    def test_all_positive_fails(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("time,amount\n0,1\n1,2\n")
        rc = main(["irr", "--cashflows", str(flows)])
        assert rc == 1
        assert "sign change" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, bad_row",
        [("nan,1\n1,-1\n", 2), ("0,-1\n1,nan\n", 3), ("0,-1\n1,inf\n", 3),
         ("0,-1\n1,1e400\n", 3)],
    )
    def test_non_finite_row_is_one_error_line(self, tmp_path, capsys, rows, bad_row):
        flows = tmp_path / "flows.csv"
        flows.write_text("time,amount\n" + rows)
        assert main(["irr", "--cashflows", str(flows)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"capreturn irr: error: row {bad_row}: time and amount must be finite"]

    def test_irr_loads_no_random_module(self, tmp_path):
        # A fresh interpreter: pytest and hypothesis may import numpy.random
        # themselves.
        flows = tmp_path / "flows.csv"
        flows.write_text("time,amount\n0,-1\n1,0.5\n2,0.7\n3,-0.1\n")
        script = (
            "import contextlib, io, sys\n"
            "from capreturn import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(['irr', '--cashflows', sys.argv[1]])\n"
            "print(status)\n"
            "print('\\n'.join(sorted(sys.modules)))\n"
        )
        source = str(Path(capreturn.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script, str(flows)], env=env,
                             capture_output=True, text=True, check=True)
        status, *modules = run.stdout.splitlines()
        assert status == "0"
        assert "capreturn.irr" in modules
        assert [m for m in modules if m == "numpy.random" or m.startswith("numpy.random.")] == []
        assert "secrets" not in modules
