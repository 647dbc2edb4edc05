"""Closed-loop timing of one capreturn workload, in a process of its own.

One client runs the operations of ``manifest.json`` in order, each after
the previous one has returned, and repeats whole rounds until at least
``--seconds`` have passed and at least ``MIN_OPS`` operations have run.
With ``--trace 1`` the rounds alternate between untraced and traced, so
the tracing overhead is measured on the same operations under the same
conditions; the run then ends after a traced round.

The first output of every input is kept in full for the checks; every
later output of the same input must hash to the same digest.

Started by run.py with the checkout's ``src`` on PYTHONPATH:

    python3 perfbench/worker.py --inputs DIR --seconds S --trace 0 --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import capreturn
import capreturn.cli

from tracer import Tracer, layer_metrics

MIN_OPS = 100
WARMUP_OPS = 3


def cli_op(spec: dict):
    """One ``capreturn`` command through ``capreturn.cli.main``; the
    output is stdout on success and the error line on failure (numpy
    warnings before it are printed once per process, so they are left out)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = capreturn.cli.main(spec["argv"])
    if code == 0:
        return True, out.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("capreturn ")]
    return False, "\n".join(errors) or err.getvalue()


def events_op(spec: dict):
    """One scenario analysed through the library functions."""
    cr = capreturn
    doc = cr.parse_scenario(Path(spec["file"]).read_text(encoding="utf-8"))
    scenario = doc.scenario()
    n = doc.quadrature_intervals
    values = cr.expected_values(scenario, intervals=n)
    out = {
        "profit_rate": values.profit_rate,
        "capitalization": values.capitalization,
        "rroc": values.rroc,
        "capital": [cr.capital_at(scenario, t, intervals=n) for t in spec["probes"]],
    }
    for label, ages in (("uniform", cr.UniformAgeDensity()), ("tabulated", doc.ages)):
        estate = cr.EstateSpec(site_scenario=scenario, ages=ages)
        out[label] = {
            "estate_rroc": cr.estate_rroc(estate, intervals=n),
            "area_average_rate": cr.area_average_rate(estate, intervals=n),
            "estate_capitalization": cr.estate_capitalization(estate, intervals=n),
        }
    out["rroe_argmax"] = [
        cr.rroe_argmax(scenario, spec["leverage"], u, spec["grid"], intervals=n)
        for u in spec["market_rates"]
    ]
    return True, out


def run_op(op, spec: dict):
    try:
        return op(spec)
    except Exception as exc:  # a failed operation is recorded, not fatal
        return False, f"{type(exc).__name__}: {exc}"


def digest(output) -> str:
    text = output if isinstance(output, str) else json.dumps(output, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    manifest = json.loads((args.inputs / "manifest.json").read_text(encoding="utf-8"))
    specs = manifest["ops"]
    op = events_op if manifest["workload"] == "events" else cli_op
    os.chdir(args.inputs)  # the manifest names input files relative to it
    tracer = Tracer(capreturn) if args.trace else None

    for spec in specs[:WARMUP_OPS]:
        run_op(op, spec)

    records = []  # (input index, seconds, ok, traced)
    first = {}  # input index -> (ok, output, digest)
    mismatches = []
    rounds = 0
    start = perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for index, spec in enumerate(specs):
            if traced:
                tracer.current_op = len(records)
            began = perf_counter()
            ok, output = run_op(op, spec)
            records.append((index, perf_counter() - began, ok, traced))
            fingerprint = digest(output)
            if index not in first:
                first[index] = (ok, output, fingerprint)
            elif first[index][2] != fingerprint:
                mismatches.append(index)
        if traced:
            tracer.uninstall()
        rounds += 1
        done = perf_counter() - start >= args.seconds and len(records) >= MIN_OPS
        if done and (tracer is None or rounds % 2 == 0):
            break
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "records": records,
        "wall_s": wall,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "outputs": {str(i): {"ok": ok, "output": out} for i, (ok, out, _) in first.items()},
        "mismatches": sorted(set(mismatches)),
    }
    if tracer is not None:
        traced_ops = [r for r in records if r[3]]
        untraced_ops = [r for r in records if not r[3]]
        rows = sum(specs[r[0]].get("rows", 1) for r in traced_ops)
        layers = layer_metrics(tracer, len(traced_ops), rows)
        layers["trace.overhead_ms"] = 1e3 * (
            sum(r[1] for r in traced_ops) - sum(r[1] for r in untraced_ops)
        ) / len(traced_ops)
        result["layers"] = layers
        tracer.write(args.result.with_name("trace.npz"))
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
