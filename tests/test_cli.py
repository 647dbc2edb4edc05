"""Command-line behavior: sweeps, optima, cash-flow rate reports."""

import csv
import io
import json
import math

import pytest

from capreturn import (
    GrowthScenario,
    SinSquaredPath,
    growth_cycle_irr,
    npv,
    rroc,
    with_rotation,
)
from capreturn.cli import main

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

    def test_capital_overflow_fails_without_nan_cells(self, tmp_path, capsys):
        doc = tmp_path / "overflow.json"
        doc.write_text('{"K0": 1, "tau": 100, "path": {"kind": "constant", "rate": 8.0}}')
        assert main(["sweep", "--scenario", str(doc), "--metrics", "rroc"]) == 1
        captured = capsys.readouterr()
        assert "nan" not in captured.out
        assert "float range" in captured.err

    def test_present_value_overflow_is_one_error_line(self, tmp_path, capsys):
        doc = tmp_path / "overflow.json"
        doc.write_text('{"K0": 1, "tau": 100, "path": {"kind": "constant", "rate": 8.0}}')
        argv = ["sweep", "--scenario", str(doc), "--metrics", "npv,omega",
                "--d", "0.05", "--u", "0.02"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "error: " in err[0] and "float range" in err[0]


    @pytest.mark.parametrize("flag", ["--d", "--u", "--L", "--tau-min", "--tau-max"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_rejected(self, hump_file, capsys, flag, value):
        argv = ["sweep", "--scenario", hump_file, "--metrics", "npv,rroe",
                "--d", "0.03", "--u", "0.02", flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: '{value}' is not a finite number" in capsys.readouterr().err

    def test_tau_steps_capped_before_the_grid_is_built(self, hump_file, capsys):
        argv = ["sweep", "--scenario", hump_file, "--tau-steps", str(2**20 + 1)]
        assert main(argv) == 1
        assert "--tau-steps must be between 2 and 1048576" in capsys.readouterr().err


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

    def test_optimum_keeping_an_event_reports_without_irr(self, tmp_path, capsys):
        doc = {
            "K0": 1.0,
            "tau": 10.0,
            "path": {"kind": "tabulated", "knots": [[0.0, 0.01], [10.0, 0.09]]},
            "investments": [{"time": 2.0, "amount": 0.5}],
        }
        scenario = tmp_path / "events.json"
        scenario.write_text(json.dumps(doc))
        argv = ["optimize", "--scenario", str(scenario), "--objective", "rroc"]
        assert main(argv + ["--d", "0.03", "--u", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "rroc = " in out
        assert "rroe(L=1, u=0.02)" in out
        assert "irr" not in out
        assert "npv" not in out


class TestIrrCommand:
    def test_breakeven(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("time,amount\n0,-1\n1,1\n")
        assert main(["irr", "--cashflows", str(flows)]) == 0
        out = capsys.readouterr().out
        assert "principal   : 0" in out or "principal   : -0" in out

    def test_two_real_roots_printed(self, tmp_path, capsys):
        flows = tmp_path / "flows.csv"
        flows.write_text("time,amount\n0,-1\n1,2.3\n2,-1.32\n")
        assert main(["irr", "--cashflows", str(flows)]) == 0
        out = capsys.readouterr().out
        assert out.count("real root") == 2
        assert format(math.log(1.1), ".9g") in out
        assert format(math.log(1.2), ".9g") in out
        assert "residual" in out

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
