"""Run one workload of the capreturn benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep|events|irr --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from its
``src`` directory, never from an installed copy. The steps are:

1. write the seeded inputs under ``perfbench/out/`` (gen.py);
2. with ``--trace 0``, time fresh interpreters importing ``capreturn.cli``;
3. run the closed loop in a worker process (worker.py);
4. check every output (checks.py);
5. print one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).

README.md describes the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing capreturn.cli.
    One unmeasured import first writes the bytecode caches and shows that
    the import finishes. The timed ones pass no timeout: with a timeout,
    subprocess polls for the exit in steps of up to 50 ms."""
    command = [sys.executable, "-c", "import capreturn.cli"]
    subprocess.run(command, env=env, check=True, timeout=60)
    samples = []
    for _ in range(SETUP_SAMPLES):
        began = perf_counter()
        subprocess.run(command, env=env, check=True)
        samples.append(perf_counter() - began)
    return statistics.median(samples)


def verify(workload: str, specs: list[dict], inputs: Path, result: dict) -> list[str]:
    problems = [f"input {i}: output differs between repeats" for i in result["mismatches"]]
    for key, entry in sorted(result["outputs"].items(), key=lambda kv: int(kv[0])):
        spec, ok, output = specs[int(key)], entry["ok"], entry["output"]
        if workload == "irr":
            problems += checks.check_irr(spec, ok, output)
        elif not ok:
            problems.append(f"input {key} failed: {output.strip()[:200]}")
        elif workload == "sweep":
            problems += checks.check_sweep(spec, output)
        else:
            doc = json.loads((inputs / spec["file"]).read_text(encoding="utf-8"))
            problems += checks.check_events(spec, doc, output)
    return problems


def end_to_end(result: dict, failed: int, setup_s: float) -> dict:
    times = [r[1] for r in result["records"]]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((len(times) - failed) / result["wall_s"], "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[-1] * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(result: dict) -> dict:
    def unit(name: str) -> str:
        return "ms" if name.endswith("_ms") else "count"

    return {name: {"value": value, "unit": unit(name)}
            for name, value in sorted(result["layers"].items())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "capreturn" / "__init__.py").is_file():
        print(f"error: no capreturn sources under {src}; run from a checkout", file=sys.stderr)
        return 2

    work = BENCH / "out" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    specs = gen.generate(args.workload, args.seed, inputs)
    env = dict(os.environ, PYTHONPATH=str(src))

    setup_s = None if args.trace else measure_setup(env)
    result_path = work / "result.json"
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--inputs", str(inputs),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--result", str(result_path)],
        env=env, check=True, timeout=WORKER_TIMEOUT_S,
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))

    problems = verify(args.workload, specs, inputs, result)
    failed = sum(1 for r in result["records"] if not r[2])
    metrics = per_layer(result) if args.trace else end_to_end(result, failed, setup_s)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": len(result["records"]),
        "failed": failed,
        "metrics": metrics,
    }
    (work / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
