"""Seeded input generator for the capreturn benchmark.

``generate(workload, seed, directory)`` writes the scenario JSON and
cash-flow CSV files that capreturn reads, plus ``manifest.json``, which
lists one entry per operation of a round in the order the worker runs
them. The same seed always gives byte-identical files.

Every workload is stratified: the make-up of a round (path kinds, knot
and event counts, polynomial degrees) is fixed, and the seed only draws
the values inside each stratum. Per-run medians then depend on the seed
as little as possible. README.md records the make-up.

Usage: python3 perfbench/gen.py --workload sweep --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "events", "irr")

# sweep: pairs of a sin_squared hump and its reversed twin.
SWEEP_PAIRS = 4
SWEEP_ROWS = 50
SWEEP_METRICS = "irr,rroc,npv,rroe,omega"

# events: tabulated paths with investment and divestment events.
EVENTS_SCENARIOS = 52
EVENTS_KNOTS = (200, 1000)
EVENTS_EVENTS = (5, 40)
EVENTS_GRID = 5
EVENTS_LEVERAGE = 1.0
EVENTS_INTERVALS = 4096

# irr: converging schedules of degree 8..40 plus the fixed failing set.
IRR_CONVERGING = 117
IRR_DEGREES = (8, 40)
IRR_STEPS = (0.25, 0.5, 1.0)
#: Schedules ``(0,-1), (1,0.1), (N,1.5)``; ``general_irr`` raises
#: RootConvergenceError on each, because the Durand-Kerner denominator
#: (a product of all pairwise root differences) overflows at these degrees.
IRR_KNOWN_FAULT_DEGREES = (128, 192, 256)


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _sweep(rng: np.random.Generator, directory: Path) -> list[dict]:
    ops = []
    for pair in range(SWEEP_PAIRS):
        mean = float(rng.uniform(0.04, 0.06))
        shape = float(rng.uniform(0.3, 0.7))
        cycle = float(rng.uniform(40.0, 80.0))
        tau = cycle * float(rng.uniform(0.35, 0.65))
        d = sorted(float(x) for x in (rng.uniform(0.02, 0.03), rng.uniform(0.05, 0.07)))
        u = sorted(float(x) for x in (rng.uniform(0.005, 0.01), rng.uniform(0.01, 0.02)))
        hump = {"kind": "sin_squared", "mean_rate": mean, "shape": shape, "full_cycle": cycle}
        for kind, path in (
            ("forward", hump),
            ("reversed", {"kind": "reversed", "inner": hump, "horizon": tau}),
        ):
            name = f"sweep_{pair:02d}_{kind}.json"
            _dump_json(directory / name, {"K0": 1.0, "tau": tau, "path": path})
            argv = ["sweep", "--scenario", name, "--tau-steps", str(SWEEP_ROWS),
                    "--metrics", SWEEP_METRICS]
            for rate in d:
                argv += ["--d", repr(rate)]
            for rate in u:
                argv += ["--u", repr(rate)]
            ops.append({
                "argv": argv,
                "kind": kind,
                "K0": 1.0,
                "tau": tau,
                "mean_rate": mean,
                "shape": shape,
                "full_cycle": cycle,
                "rows": SWEEP_ROWS,
                "d": d,
                "u": u,
                "L": 1.0,
            })
    return ops


def cumulative_return(times: np.ndarray, rates: np.ndarray, t) -> np.ndarray:
    """Exact integral from times[0] to ``t`` of the piecewise-linear rate."""
    prefix = np.concatenate(([0.0], np.cumsum(np.diff(times) * (rates[1:] + rates[:-1]) / 2.0)))
    t = np.asarray(t, dtype=float)
    i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
    r_t = np.interp(t, times, rates)
    return prefix[i] + (t - times[i]) * (rates[i] + r_t) / 2.0


def _stratum(k: int, count: int, lo: int, hi: int, rng: np.random.Generator) -> int:
    """Value in the k-th of ``count`` equal slices of [lo, hi]."""
    return int(round(lo + (hi - lo) * (k + rng.uniform()) / count))


def _events(rng: np.random.Generator, directory: Path) -> list[dict]:
    ops = []
    # Fixed pairing of knot strata with event strata (a stride through
    # the slices), so the cost mix of a round is the same for every seed.
    for k in range(EVENTS_SCENARIOS):
        n_knots = _stratum(k, EVENTS_SCENARIOS, *EVENTS_KNOTS, rng)
        n_events = _stratum((5 * k) % EVENTS_SCENARIOS, EVENTS_SCENARIOS, *EVENTS_EVENTS, rng)
        tau = float(rng.uniform(30.0, 60.0))

        spacing = tau / (n_knots - 1)
        times = np.linspace(0.0, tau, n_knots)
        times[1:-1] += rng.uniform(-0.3, 0.3, n_knots - 2) * spacing
        # One growth hump peaking mid-rotation plus knot-to-knot noise, so
        # the rotation maximizing the return on capital falls at a similar
        # share of tau for every seed and the golden-section cost is stable.
        base = float(rng.uniform(0.0, 0.02))
        swing = float(rng.uniform(0.03, 0.05))
        rates = (base + swing * np.sin(math.pi * times / tau)
                 + rng.normal(0.0, 0.01, n_knots))

        # Event times stratified over (0.02, 0.98) * tau.
        slots = (np.arange(n_events) + rng.uniform(0.1, 0.9, n_events)) / n_events
        event_times = tau * (0.02 + 0.96 * slots)
        # Amounts keep capital above 60 % of its pre-event value, using
        # the exact capital path, so it stays positive at any resolution.
        returns = cumulative_return(times, rates, event_times)
        capital, previous = 1.0, 0.0
        events = []
        for t, r in zip(event_times, returns):
            capital *= math.exp(r - previous)
            previous = r
            if rng.uniform() < 0.5:
                amount = float(rng.uniform(0.05, 0.5))
            else:
                amount = -float(rng.uniform(0.05, 0.4)) * capital
            capital += amount
            events.append({"time": float(t), "amount": amount})

        n_ages = int(rng.integers(3, 9))
        ages = np.sort(rng.uniform(0.0, tau, n_ages))
        ages[0] = 0.0
        weights = rng.uniform(0.1, 2.0, n_ages)

        name = f"events_{k:02d}.json"
        _dump_json(directory / name, {
            "K0": 1.0,
            "tau": tau,
            "quadrature_intervals": EVENTS_INTERVALS,
            "path": {"kind": "tabulated",
                     "knots": [[float(a), float(b)] for a, b in zip(times, rates)]},
            "investments": events,
            "estate": {"ages": {"kind": "tabulated",
                                "knots": [[float(a), float(w)] for a, w in zip(ages, weights)]}},
        })
        probes = [float(rng.uniform(0.05, 0.35)) * tau, float(rng.uniform(0.35, 0.7)) * tau, tau]
        ops.append({
            "file": name,
            "knots": n_knots,
            "events": n_events,
            "probes": probes,
            "market_rates": [float(rng.uniform(0.0, 0.02)), float(rng.uniform(0.03, 0.06))],
            "leverage": EVENTS_LEVERAGE,
            "grid": [float(x) for x in np.linspace(0.3 * tau, tau, EVENTS_GRID)],
        })
    return ops


def _write_flows(path: Path, times, amounts) -> None:
    rows = ["time,amount"] + [f"{t!r},{a!r}" for t, a in zip(times, amounts)]
    path.write_text("\r\n".join(rows) + "\r\n", encoding="utf-8")


def _irr(rng: np.random.Generator, directory: Path) -> list[dict]:
    converging = []
    for k in range(IRR_CONVERGING):
        degree = _stratum(k, IRR_CONVERGING, *IRR_DEGREES, rng)
        step = IRR_STEPS[k % len(IRR_STEPS)]
        extra = int(rng.integers(2, min(20, degree - 2) + 1))
        # Exponents 0 and 1 fix the grid step; the last one fixes the degree.
        middle = np.sort(rng.choice(np.arange(2, degree), extra, replace=False))
        exponents = [0, 1, *(int(e) for e in middle), degree]
        amounts = [-float(rng.uniform(1.0, 3.0)), -float(rng.uniform(0.2, 1.0))]
        reinvest_at = int(rng.integers(len(middle) // 2, len(middle))) if rng.uniform() < 0.5 else -1
        for i in range(len(middle)):
            sign = -1.0 if i == reinvest_at else 1.0
            amounts.append(sign * float(rng.uniform(0.2, 1.0)))
        amounts.append(float(rng.uniform(0.5, 3.0)))
        name = f"irr_{k:02d}.csv"
        times = [e * step for e in exponents]
        _write_flows(directory / name, times, amounts)
        converging.append({"file": name, "times": times, "amounts": amounts,
                           "degree": degree, "step": step, "known_fault": False})

    faults = []
    for degree in IRR_KNOWN_FAULT_DEGREES:
        name = f"irr_fault_{degree}.csv"
        times, amounts = [0.0, 1.0, float(degree)], [-1.0, 0.1, 1.5]
        _write_flows(directory / name, times, amounts)
        faults.append({"file": name, "times": times, "amounts": amounts,
                       "degree": degree, "step": 1.0, "known_fault": True})

    # Spread the slow failing schedules evenly through the round.
    ops = []
    every = len(converging) // len(faults)
    for i, spec in enumerate(converging):
        ops.append(spec)
        if (i + 1) % every == 0 and faults:
            ops.append(faults.pop(0))
    ops.extend(faults)
    for spec in ops:
        spec["argv"] = ["irr", "--cashflows", spec["file"]]
    return ops


def generate(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the inputs of one round and return the operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    ops = {"sweep": _sweep, "events": _events, "irr": _irr}[workload](rng, directory)
    _dump_json(directory / "manifest.json", {"workload": workload, "seed": seed, "ops": ops})
    return ops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    ops = generate(args.workload, args.seed, args.out)
    print(f"{len(ops)} operations written to {args.out}")


if __name__ == "__main__":
    main()
