"""Tests of the benchmark itself: seeded inputs, output checks, tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import filecmp
import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import capreturn  # noqa: E402
import capreturn.cli  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Generate a workload's inputs for seed 3 and run from their directory."""
    def make(workload):
        specs = gen.generate(workload, 3, tmp_path)
        monkeypatch.chdir(tmp_path)
        return specs
    return make


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_one_seed_always_yields_the_same_inputs(tmp_path, workload):
    gen.generate(workload, 5, tmp_path / "a")
    gen.generate(workload, 5, tmp_path / "b")
    gen.generate(workload, 6, tmp_path / "c")
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names, shallow=False)
    assert mismatch == [] and errors == []
    assert not filecmp.cmp(tmp_path / "a" / "manifest.json", tmp_path / "c" / "manifest.json",
                           shallow=False)


def _replace_cell(text: str, row: int, column: int, factor: float) -> str:
    lines = text.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("tau,")) + 1 + row
    cells = lines[at].rstrip("\r\n").split(",")
    cells[column] = repr(float(cells[column]) * factor)
    lines[at] = ",".join(cells) + "\r\n"
    return "".join(lines)


def test_sweep_checks_pass_and_catch_each_perturbed_column(inputs):
    specs = inputs("sweep")
    for spec in specs[:2]:  # a hump and its reversed twin
        ok, text = worker.cli_op(spec)
        assert ok
        assert checks.check_sweep(spec, text) == []
        header = next(line for line in text.splitlines() if line.startswith("tau,"))
        for column in range(1, len(header.split(","))):
            bad = _replace_cell(text, 7, column, 1.0 + 1e-6)
            assert checks.check_sweep(spec, bad), header.split(",")[column]


def test_events_checks_pass_and_catch_each_perturbed_value(inputs):
    specs = inputs("events")
    spec = specs[4]
    doc = json.loads(Path(spec["file"]).read_text(encoding="utf-8"))
    ok, out = worker.events_op(spec)
    assert ok
    assert checks.check_events(spec, doc, out) == []

    def perturbed(path, factor=1.05):
        bad = copy.deepcopy(out)
        holder = bad
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] *= factor
        return bad

    fields = [("profit_rate",), ("rroc",), ("capital", 0), ("capital", 1), ("capital", 2),
              ("uniform", "estate_rroc"), ("uniform", "area_average_rate"),
              ("uniform", "estate_capitalization"), ("tabulated", "estate_rroc"),
              ("tabulated", "area_average_rate"), ("tabulated", "estate_capitalization"),
              ("rroe_argmax", 1)]
    for path in fields:
        assert checks.check_events(spec, doc, perturbed(path)), path


def test_irr_checks_pass_and_catch_perturbed_roots(inputs):
    specs = inputs("irr")
    converging = [s for s in specs if not s["known_fault"]]
    spec = converging[10]
    ok, text = worker.cli_op(spec)
    assert ok
    assert checks.check_irr(spec, ok, text) == []
    root_line = next(line for line in text.splitlines() if line.startswith("real root"))
    rate = float(root_line.split(":")[1].split()[0])
    moved = text.replace(root_line, root_line.replace(f"{rate:.9g}", f"{rate * 1.001:.9g}"))
    assert checks.check_irr(spec, ok, moved)
    degree_line = next(line for line in text.splitlines() if line.startswith("poly degree"))
    assert checks.check_irr(spec, ok, text.replace(degree_line, "poly degree : 7"))
    complex_line = next(line for line in text.splitlines() if line.startswith("complex"))
    assert checks.check_irr(spec, ok, text.replace(complex_line, "complex     : 0"))
    # Only the named root-finder fault on the fixed failing set is accepted.
    fault = "capreturn irr: error: root iteration did not converge (residual nan)"
    assert checks.check_irr(spec, False, fault)
    known = next(s for s in specs if s["known_fault"])
    assert checks.check_irr(known, False, fault) == []
    assert checks.check_irr(known, False, "capreturn irr: error: something else")


def test_known_fault_schedules_fail_with_the_named_error(inputs):
    specs = inputs("irr")
    for spec in (s for s in specs if s["known_fault"]):
        ok, text = worker.cli_op(spec)
        assert not ok and checks.KNOWN_FAULT in text


def test_tracer_counts_eight_path_evaluations_per_sweep_row(inputs):
    specs = inputs("sweep")
    spec = specs[1]
    plain = worker.cli_op(spec)
    original = capreturn.cli.rroc
    tracer = Tracer(capreturn)
    tracer.install()
    try:
        assert capreturn.cli.rroc is not original  # bound where cli looks it up
        tracer.current_op = 0
        traced = worker.cli_op(spec)
    finally:
        tracer.uninstall()
    assert capreturn.cli.rroc is original
    assert traced == plain
    metrics = layer_metrics(tracer, ops=1, rows=spec["rows"])
    # Per row: mean_rate, irr, rroc, two npv, rroe (a second rroc), two omega.
    assert metrics["paths.evals_per_row"] == 8
    assert metrics["paths.nodes"] == 8 * 4097 * spec["rows"]
    assert metrics["cli.calls"] == 1
    assert metrics["valuation.calls"] == 2 * spec["rows"]
    assert metrics["scenario_io.parse_ms"] > 0.0
    spans = tracer.spans()
    assert (spans["self_time"] >= -1e-9).all()
