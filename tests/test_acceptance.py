"""Acceptance criteria for the package, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail
line per criterion. Every tolerance is fixed here, not configurable.
"""

import json
import math

import numpy as np
import pytest

from capreturn import (
    CashEvent,
    CashFlowSchedule,
    ConstantPath,
    EstateSpec,
    GrowthScenario,
    InvestmentEvent,
    ReversedPath,
    ScenarioDocument,
    SinSquaredPath,
    TabulatedPath,
    UniformAgeDensity,
    area_average_rate,
    capital_at,
    estate_rroc,
    expected_capitalization,
    expected_profit_rate,
    general_irr,
    growth_cycle_irr,
    leverage_npv_ratio,
    leveraged_discount_rate,
    npv,
    parse_scenario,
    rroc,
    rroe_argmax,
    serialize_scenario,
    with_rotation,
)
from capreturn.cli import main as cli_main
from oracles import midpoint_integral, refine_argmax

MEAN, SHAPE, CYCLE = 0.05, 0.5, 100.0


def hump():
    return SinSquaredPath(MEAN, SHAPE, CYCLE)


def hump_scenario(tau=CYCLE):
    return GrowthScenario(1.0, tau, hump())


def report(number: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {status}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_constant_path_collapse():
    worst = 0.0
    for rate in (0.01, 0.05, 0.2):
        for tau in (1.0, 10.0, 100.0):
            s = GrowthScenario(1.0, tau, ConstantPath(rate))
            worst = max(
                worst,
                abs(rroc(s) - rate),
                abs(growth_cycle_irr(s) - rate),
            )
    report(1, f"constant paths: RROC = IRR = rate (worst |err| {worst:.2e})",
           worst < 1e-9)


def test_criterion_02_profit_independent_capitalization_not():
    # Over the full cycle the hump is symmetric, so its reversal is the
    # identity there; the half cycle is where reversal actually reorders
    # the rates, which is what path dependence needs.
    full_fwd = hump_scenario()
    full_rev = GrowthScenario(1.0, CYCLE, ReversedPath(hump(), CYCLE))
    half_fwd = hump_scenario(CYCLE / 2)
    half_rev = GrowthScenario(1.0, CYCLE / 2, ReversedPath(hump(), CYCLE / 2))

    profit_gap = 0.0
    for a, b in ((full_fwd, full_rev), (half_fwd, half_rev)):
        pa, pb = expected_profit_rate(a), expected_profit_rate(b)
        profit_gap = max(profit_gap, abs(pa - pb) / abs(pa))
    cap_fwd = expected_capitalization(half_fwd)
    cap_rev = expected_capitalization(half_rev)
    cap_gap = abs(cap_fwd - cap_rev) / cap_fwd

    report(
        2,
        f"profit path-independent (rel gap {profit_gap:.2e}), "
        f"capitalization path-dependent (rel gap {cap_gap:.2e})",
        profit_gap < 1e-8 and cap_gap > 1e-3,
    )


def test_criterion_03_cycle_structure_of_the_two_criteria():
    grid = np.linspace(CYCLE / 400, CYCLE, 400)
    rrocs = np.array([rroc(with_rotation(hump_scenario(), t)) for t in grid])
    irrs = np.array([growth_cycle_irr(hump_scenario(t)) for t in grid])

    end_irr_ok = abs(irrs[-1] - MEAN) < 1e-6
    end_rroc_ok = rrocs[-1] < MEAN
    max_ok = rrocs.max() > irrs.max()
    arg_ok = grid[rrocs.argmax()] < grid[irrs.argmax()]
    report(
        3,
        "cycle structure: IRR ends at the mean rate, RROC ends below it, "
        f"peaks {rrocs.max():.4f} > {irrs.max():.4f} and "
        f"argmax {grid[rrocs.argmax()]:.2f} < {grid[irrs.argmax()]:.2f}",
        end_irr_ok and end_rroc_ok and max_ok and arg_ok,
    )


def test_criterion_04_profit_closed_form_vs_quadrature():
    rng = np.random.default_rng(20250809)
    worst = 0.0
    for i in range(20):
        k0 = rng.uniform(0.5, 5.0)
        if i % 2 == 0:
            path = ConstantPath(rng.uniform(-0.02, 0.15))
            tau = rng.uniform(1.0, 90.0)
        else:
            path = SinSquaredPath(rng.uniform(0.0, 0.12), rng.uniform(0.0, 1.0), CYCLE)
            tau = rng.uniform(1.0, CYCLE)
        scenario = GrowthScenario(k0, tau, path)
        span = midpoint_integral(path.evaluate, 0.0, tau, n=100_000)
        closed = k0 * (math.exp(span) - 1.0) / tau
        value = expected_profit_rate(scenario)
        worst = max(worst, abs(value - closed) / max(abs(closed), 1e-12))
    report(4, f"profit rate closed form vs quadrature on 20 random scenarios "
              f"(worst rel err {worst:.2e})", worst < 1e-8)


def test_criterion_05_cash_flow_solver_consistency():
    tau = 60.0
    s = hump_scenario(tau)
    flows = CashFlowSchedule(
        (CashEvent(0.0, -1.0), CashEvent(tau, capital_at(s, tau)))
    )
    two_event_gap = abs(
        general_irr(flows).principal_root - growth_cycle_irr(s)
    )

    result = general_irr(
        CashFlowSchedule(
            (CashEvent(0.0, -1.0), CashEvent(1.0, 2.3), CashEvent(2.0, -1.32))
        )
    )
    # Quadratic-formula oracle for the discounted-value polynomial.
    a, b, c = -1.32, 2.3, -1.0
    disc = math.sqrt(b * b - 4 * a * c)
    expected = sorted(-math.log(x) for x in ((-b + disc) / (2 * a), (-b - disc) / (2 * a)))
    root_gap = max(
        abs(got - want) for got, want in zip(result.all_real_roots, expected)
    )
    report(
        5,
        f"cash-flow solver: two-event gap {two_event_gap:.2e}, "
        f"two-root gap {root_gap:.2e}",
        two_event_gap < 1e-6 and len(result.all_real_roots) == 2 and root_gap < 1e-9,
    )


def test_criterion_06_leverage_ratio_is_one_plus_leverage():
    s = hump_scenario()
    worst = 0.0
    cross_gap = 0.0
    for lev in (-0.5, 0.0, 1.0, 3.0):
        ratios = [
            leverage_npv_ratio(s, d, d, lev) for d in (0.03, 0.08)
        ]
        worst = max(worst, *(abs(r - (1.0 + lev)) for r in ratios))
        cross_gap = max(cross_gap, abs(ratios[0] - ratios[1]))
    report(
        6,
        f"leveraged/unleveraged value ratio is 1+L at matched rates "
        f"(worst err {worst:.2e}), independent of the rate level "
        f"(gap {cross_gap:.2e})",
        worst < 1e-9 and cross_gap < 1e-9,
    )


def test_criterion_07_break_even_rate_asymptotics_and_residuals():
    s = hump_scenario()
    avg = s.path.time_average_rate(CYCLE)
    limits_ok = (
        leveraged_discount_rate(s, 0.0, 0.03) == pytest.approx(avg, abs=1e-12)
        and leveraged_discount_rate(s, 2.5, avg) == pytest.approx(avg, abs=1e-12)
    )

    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    while checked < 20:
        tau = rng.uniform(5.0, CYCLE)
        lev = rng.uniform(-0.9, 4.0)
        u = rng.uniform(0.0, 2.0 * MEAN)
        mean_rate = midpoint_integral(s.path.evaluate, 0.0, tau, n=100_000) / tau
        if 1.0 + lev * (1.0 - math.exp(-tau * (mean_rate - u))) <= 1e-6:
            continue
        rate = leveraged_discount_rate(with_rotation(s, tau), lev, u)
        terminal = (1.0 + lev) * math.exp(mean_rate * tau) - lev * math.exp(u * tau)
        worst = max(worst, abs(terminal * math.exp(-rate * tau) - 1.0))
        checked += 1
    report(
        7,
        f"break-even rate: exact limits and zero-value residual at 20 random "
        f"points (worst {worst:.2e})",
        limits_ok and worst < 1e-9,
    )


def test_criterion_08_equity_return_optimum_ignores_market_rate():
    s = hump_scenario()
    grid = np.linspace(CYCLE / 200, CYCLE, 200)
    step = grid[1] - grid[0]
    stars = [rroe_argmax(s, 1.0, u, grid) for u in (0.0, 0.5 * MEAN, MEAN, 2.0 * MEAN)]
    rroc_star, _ = refine_argmax(lambda t: rroc(with_rotation(s, t)), grid)
    spread = max(stars) - min(stars)
    rroc_gap = max(abs(t - rroc_star) for t in stars)
    report(
        8,
        f"equity-return optimum fixed across market rates (spread {spread:.2e}) "
        f"and equal to the capital-return optimum (gap {rroc_gap:.2e})",
        spread <= step and rroc_gap <= step,
    )


def test_criterion_09_value_optimum_moves_with_discount_rate():
    s = hump_scenario()
    grid = np.linspace(CYCLE / 200, CYCLE, 200)
    step = grid[1] - grid[0]
    stars = []
    for d in (0.5 * MEAN, MEAN, 1.5 * MEAN):
        tau_star, _ = refine_argmax(
            lambda t, d=d: npv(with_rotation(s, t), d), grid
        )
        stars.append(tau_star)
    spread = max(stars) - min(stars)
    report(
        9,
        f"present-value optimum moves with the discount rate "
        f"(tau* = {', '.join(f'{t:.2f}' for t in stars)})",
        spread > step,
    )


def test_criterion_10_estate_return_differs_from_area_average():
    estate = EstateSpec(hump_scenario(), UniformAgeDensity())
    area = area_average_rate(estate)
    weighted = estate_rroc(estate)
    irr_end = growth_cycle_irr(hump_scenario())
    report(
        10,
        f"estate: area-average {area:.4f} vs capital-weighted {weighted:.4f}, "
        f"area-average equals the cycle IRR (gap {abs(area - irr_end):.2e})",
        abs(area - weighted) > 1e-3 and abs(area - irr_end) < 1e-6,
    )


def test_criterion_11_io_round_trip_and_determinism(tmp_path):
    rng = np.random.default_rng(11)
    docs = []
    for i in range(10):
        if i % 3 == 0:
            path = ConstantPath(float(rng.uniform(-0.02, 0.1)))
            tau = float(rng.uniform(1.0, 50.0))
        elif i % 3 == 1:
            path = SinSquaredPath(
                float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.0, 1.0)), CYCLE
            )
            tau = float(rng.uniform(1.0, CYCLE))
        else:
            times = np.sort(rng.uniform(0.0, 50.0, size=3))
            times[0] = 0.0
            rates = rng.uniform(-0.02, 0.1, size=3)
            path = TabulatedPath(tuple(zip(map(float, times), map(float, rates))))
            tau = float(times[-1])
        docs.append(ScenarioDocument(float(rng.uniform(0.5, 4.0)), tau, path))
    round_trip_ok = all(parse_scenario(serialize_scenario(d)) == d for d in docs)

    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(
        json.dumps(
            {
                "K0": 1.0,
                "tau": CYCLE,
                "path": {
                    "kind": "sin_squared",
                    "mean_rate": MEAN,
                    "shape": SHAPE,
                    "full_cycle": CYCLE,
                },
            }
        )
    )
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        rc = cli_main(
            ["sweep", "--scenario", str(scenario_file), "--tau-steps", "40",
             "--metrics", "irr,rroc,npv", "--d", "0.025", "--d", "0.05",
             "--out", str(out)]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    report(
        11,
        "documents round-trip exactly and repeated sweeps are byte-identical",
        round_trip_ok and outputs[0] == outputs[1],
    )


def test_criterion_12_accrual_identity_with_events():
    # Capital grows by its own accrual and by the events: the integral of
    # K * r over the rotation is K(tau) - K0 - sum of the event amounts.
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(60):
        k0 = float(rng.uniform(0.5, 5.0))
        mean, shape = rng.uniform(0.01, 0.12), rng.uniform(0.0, 1.0)
        hump_path = SinSquaredPath(float(mean), float(shape), CYCLE)
        tau = float(rng.uniform(5.0, CYCLE))
        if i % 3 == 0:
            path = hump_path
        elif i % 3 == 1:
            path = ReversedPath(hump_path, tau)
        else:
            times = np.sort(rng.uniform(0.0, tau, size=int(rng.integers(2, 8))))
            times[0], times[-1] = 0.0, tau
            rates = rng.uniform(0.01, 0.12, size=times.size)
            path = TabulatedPath(tuple(zip(map(float, times), map(float, rates))))
        # Up to five events, withdrawals of at most 0.15 * K0 each: capital stays positive.
        event_times = np.sort(rng.choice(np.arange(1, 100), size=int(rng.integers(1, 6)),
                                         replace=False)) * tau / 100
        amounts = rng.uniform(-0.15, 0.5, size=event_times.size) * k0
        events = tuple(InvestmentEvent(float(t), float(a)) for t, a in zip(event_times, amounts))
        scenario = GrowthScenario(k0, tau, path, events)
        accrued = (capital_at(scenario, tau) - k0 - amounts.sum()) / tau
        profit = expected_profit_rate(scenario)
        worst = max(worst, abs(profit - accrued) / abs(accrued))
    report(12, f"accrual identity: profit rate = (K(tau) - K0 - sum of events) / tau on "
               f"60 event schedules (worst rel gap {worst:.2e})", worst < 1e-9)
