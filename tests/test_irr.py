"""Cash-flow rate-of-return solving: closed-form cycle and polynomial routes."""

import dataclasses
import importlib
import math
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capreturn import (
    CashEvent,
    CashFlowSchedule,
    ConstantPath,
    DiscretizationError,
    GrowthScenario,
    InvestmentEvent,
    NoRootError,
    ReturnPath,
    ReversedPath,
    RootConvergenceError,
    SinSquaredPath,
    UnsupportedScheduleError,
    capital_at,
    general_irr,
    growth_cycle_irr,
    rroc,
    with_rotation,
)
from capreturn import irr as irr_module
from capreturn.irr import _coefficient_rows, _evaluate
from capreturn.optimize import _irr_argmax
from oracles import bisect_root, real_roots_by_scan, refine_argmax

MEAN, SHAPE, CYCLE = 0.05, 0.5, 100.0


def schedule(*pairs):
    return CashFlowSchedule(tuple(CashEvent(t, a) for t, a in pairs))


class TestGrowthCycleIrr:
    def test_constant_path(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        assert growth_cycle_irr(s) == pytest.approx(0.05, abs=1e-12)

    def test_full_cycle_converges_to_mean_rate(self):
        s = GrowthScenario(1.0, CYCLE, SinSquaredPath(MEAN, SHAPE, CYCLE))
        assert growth_cycle_irr(s) == pytest.approx(MEAN, abs=1e-6)

    def test_below_rroc_where_capital_weighting_helps(self):
        # Mid-cycle the low early rates are held at low capitalization,
        # so the capital-weighted return beats the plain time average.
        s = with_rotation(
            GrowthScenario(1.0, CYCLE, SinSquaredPath(MEAN, SHAPE, CYCLE)), CYCLE / 2
        )
        assert growth_cycle_irr(s) < rroc(s)

    def test_investments_unsupported(self):
        s = GrowthScenario(
            1.0, 10.0, ConstantPath(0.05), (InvestmentEvent(5.0, 0.5),)
        )
        with pytest.raises(UnsupportedScheduleError, match="investment-free"):
            growth_cycle_irr(s)


# A sin^2 hump, a narrower one, and a hump played backwards from past its
# peak, so that the rate first rises and then falls for most of the rotation.
SEARCH_SCENARIOS = {
    "hump": GrowthScenario(1.0, CYCLE, SinSquaredPath(MEAN, SHAPE, CYCLE)),
    "cycle80": GrowthScenario(1.0, 80.0, SinSquaredPath(MEAN, 0.3, 80.0)),
    "reversed": GrowthScenario(1.0, 60.0, ReversedPath(SinSquaredPath(MEAN, SHAPE, CYCLE), 60.0)),
}


@pytest.mark.parametrize("name", SEARCH_SCENARIOS)
class TestIrrSearch:
    """The IRR-optimal rotation: where the spot rate falls to the
    time-average rate, bracketed by one pass over the longest rotation."""

    @staticmethod
    def grid(s):
        return np.linspace(s.rotation_length / 200, s.rotation_length, 200)

    def test_matches_the_first_order_condition(self, name):
        s = SEARCH_SCENARIOS[name]
        tau = _irr_argmax(s, self.grid(s), 4096)

        def rate_gap(t):
            return s.path.evaluate(t) - growth_cycle_irr(with_rotation(s, t), intervals=65536)

        assert tau == pytest.approx(bisect_root(rate_gap, tau - 1.0, tau + 1.0), abs=1e-8)

    def test_one_single_point_irr_per_search(self, name, monkeypatch):
        calls = []
        original = ReturnPath.time_average_rate

        def counted(path, horizon, **kwargs):
            calls.append(horizon)
            return original(path, horizon, **kwargs)

        # Every single-point IRR takes the path's time average.
        monkeypatch.setattr(ReturnPath, "time_average_rate", counted)
        _irr_argmax(SEARCH_SCENARIOS[name], self.grid(SEARCH_SCENARIOS[name]), 4096)
        # The search returns tau* alone: not even the optimum is valued.
        assert calls == []

    def test_not_below_golden_section(self, name):
        s = SEARCH_SCENARIOS[name]
        tau = _irr_argmax(s, self.grid(s), 4096)
        _, golden = refine_argmax(
            lambda t: growth_cycle_irr(with_rotation(s, t)), self.grid(s)
        )
        assert growth_cycle_irr(with_rotation(s, tau)) >= golden * (1.0 - 1e-12)


class TestScheduleValidation:
    @pytest.mark.parametrize("time, amount", [(math.nan, 1.0), (1.0, math.nan),
                                              (math.inf, 1.0), (1.0, -math.inf)])
    def test_non_finite_event_rejected(self, time, amount):
        with pytest.raises(ValueError, match="finite"):
            CashEvent(time, amount)

    def test_needs_two_events(self):
        with pytest.raises(ValueError):
            schedule((0.0, -1.0))

    def test_needs_sign_change(self):
        with pytest.raises(NoRootError):
            schedule((0.0, 1.0), (1.0, 2.0))

    def test_needs_nonnegative_times(self):
        with pytest.raises(ValueError):
            schedule((-1.0, -1.0), (1.0, 2.0))

    def test_needs_ordered_times(self):
        with pytest.raises(ValueError):
            schedule((2.0, -1.0), (1.0, 2.0))


class TestGeneralIrr:
    def test_two_event_closed_form(self):
        result = general_irr(schedule((0.0, -1.0), (2.0, 1.21)))
        # Break-even rate satisfies exp(2*rate) = 1.21.
        assert result.principal_root == pytest.approx(math.log(1.1), abs=1e-12)
        assert result.base_step == pytest.approx(2.0)

    def test_breakeven_schedule_has_zero_root(self):
        result = general_irr(schedule((0.0, -1.0), (1.0, 1.0)))
        assert result.principal_root == pytest.approx(0.0, abs=1e-12)

    def test_two_real_roots_match_quadratic_formula(self):
        amounts = [-1.0, 2.3, -1.32]
        result = general_irr(schedule((0.0, -1.0), (1.0, 2.3), (2.0, -1.32)))
        # Discounted value is a quadratic in x = exp(-rate); solve it directly.
        c, b, a = amounts
        disc = math.sqrt(b * b - 4 * a * c)
        expected = sorted(-math.log(x) for x in ((-b + disc) / (2 * a), (-b - disc) / (2 * a)))
        assert len(result.all_real_roots) == 2
        assert result.all_real_roots[0] == pytest.approx(expected[0], abs=1e-9)
        assert result.all_real_roots[1] == pytest.approx(expected[1], abs=1e-9)
        assert result.principal_root == pytest.approx(min(expected), abs=1e-9)
        assert result.complex_root_count == 0

    def test_two_real_roots_match_sign_scan(self):
        events = ((0.0, -1.0), (1.0, 2.3), (2.0, -1.32))

        def discounted_value(rate):
            return sum(a * np.exp(-rate * t) for t, a in events)

        scanned = real_roots_by_scan(discounted_value, -1.0, 1.0)
        result = general_irr(schedule(*events))
        assert len(scanned) == len(result.all_real_roots) == 2
        for got, expected in zip(result.all_real_roots, sorted(scanned)):
            assert got == pytest.approx(expected, abs=1e-9)

    def test_matches_growth_cycle_irr(self):
        tau = 60.0
        s = GrowthScenario(1.5, tau, SinSquaredPath(MEAN, SHAPE, CYCLE))
        flows = schedule((0.0, -1.5), (tau, capital_at(s, tau)))
        assert general_irr(flows).principal_root == pytest.approx(
            growth_cycle_irr(s), abs=1e-6
        )

    def test_residuals_meet_tolerance(self):
        sched = schedule((0.0, -2.0), (1.0, 1.1), (3.0, 0.4), (5.0, 0.9))
        result = general_irr(sched)
        scale = sum(abs(e.amount) for e in sched.events)
        assert result.all_real_roots, "expected at least one real root"
        for rate, residual in zip(result.all_real_roots, result.residuals):
            assert residual < 1e-8 * scale
            direct = abs(
                sum(e.amount * math.exp(-rate * e.time) for e in sched.events)
            )
            assert direct < 1e-8 * scale

    def test_root_counts_add_to_degree(self):
        for sched in [
            schedule((0.0, -1.0), (1.0, 2.3), (2.0, -1.32)),
            schedule((0.0, -1.0), (1.0, 3.0), (2.0, -3.0)),
            schedule((0.0, -2.0), (1.0, 1.1), (3.0, 0.4), (5.0, 0.9)),
            schedule((0.0, -1.0), (0.5, 0.3), (1.0, 0.4), (1.5, 0.5)),
        ]:
            result = general_irr(sched)
            assert len(result.all_real_roots) + result.complex_root_count == result.degree

    def test_all_complex_roots_give_no_principal(self):
        result = general_irr(schedule((0.0, -1.0), (1.0, 3.0), (2.0, -3.0)))
        assert result.principal_root is None
        assert result.all_real_roots == ()
        assert result.complex_root_count == 2

    def test_principal_prefers_smallest_magnitude(self):
        # Roots at exp(-rate) = 0.5 and 1.25: rates ln(2) and ln(0.8) < 0.
        # (x - 0.5) * (x - 1.25) = x^2 - 1.75 x + 0.625
        result = general_irr(schedule((0.0, 0.625), (1.0, -1.75), (2.0, 1.0)))
        assert len(result.all_real_roots) == 2
        assert result.principal_root == pytest.approx(-math.log(1.25), abs=1e-10)

    def test_offset_start_time(self):
        # Same spacing, shifted by 1 year: rates are translation-invariant.
        base = general_irr(schedule((0.0, -1.0), (2.0, 1.21)))
        shifted = general_irr(schedule((1.0, -1.0), (3.0, 1.21)))
        assert shifted.principal_root == pytest.approx(
            base.principal_root, abs=1e-10
        )

    def test_incommensurable_times_rejected(self):
        with pytest.raises(DiscretizationError):
            general_irr(schedule((0.0, -1.0), (1.0, 0.5), (math.sqrt(2.0), 1.0)))

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (((0.0, -1.0), (0.0, 2.0)), "all events occur at a single instant"),
            (((1.0, -1.0), (1.0, 1.0)), "all amounts cancel; every rate is a root"),
            (((0.0, -1.0), (1.0, 1.0), (1.0, -1.0)), "events collapse to a single grid instant"),
        ],
        ids=["one-instant", "cancel", "one-grid-instant"],
    )
    def test_degenerate_schedule_has_no_root(self, pairs, message):
        with pytest.raises(NoRootError, match=f"^{message}$"):
            general_irr(schedule(*pairs))

    def test_time_off_the_common_step_is_named(self):
        with pytest.raises(
            DiscretizationError,
            match=r"^event time 1 is not a multiple of the base step 1e-08$",
        ):
            general_irr(schedule((0.0, -1.0), (3e-8, 0.5), (1.0, 1.0)))

    @pytest.mark.parametrize(
        "pairs, message",
        [
            # Degree 1e19 wraps past int64 if converted before it is judged.
            (((0.0, -1.0), (1.0, 0.5), (1e19, 1.0)),
             r"^discretized polynomial degree 1e\+19 exceeds 4096; "),
            # 1e300 over a step near 1e-9 is an infinite quotient.
            (((0.0, -1.0), (1.5e-9, 0.5), (1e300, 1.0)),
             r"^event time 1e\+300 is not a multiple of the base step "),
        ],
        ids=["degree-beyond-int64", "time-beyond-float-steps"],
    )
    def test_times_beyond_the_grid_are_named(self, pairs, message):
        with pytest.raises(DiscretizationError, match=message):
            general_irr(schedule(*pairs))

    def test_amounts_near_float_max_raise_no_warning(self):
        # Their sums overflow unless the amounts are scaled first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = general_irr(schedule((0.0, -1e308), (1.0, 1e308), (2.0, 1e308)))
        # exp(-rate) solves x**2 + x - 1 = 0.
        assert result.principal_root == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=1e-12)
        assert math.isfinite(result.residuals[0])

    @pytest.mark.parametrize(
        "pairs, rate",
        [
            # The discounted amounts reach 1e324 at the root.
            (((97.0, 1.6107519317932944e308), (100.0, -5.110448605383279e307)),
             math.log(5.110448605383279e307 / 1.6107519317932944e308) / 3),
            # exp(-r * t) is beyond float range at the root (e^4542).
            (((54.0, -3.344584784795652e-214), (56.0, 1.1951654166811383e-284)),
             math.log(1.1951654166811383e-284 / 3.344584784795652e-214) / 2),
        ],
        ids=["amounts-near-float-max", "factors-beyond-float-range"],
    )
    def test_root_whose_discounted_amounts_leave_float_range_is_kept(self, pairs, rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = general_irr(schedule(*pairs))
        assert result.all_real_roots == (pytest.approx(rate, rel=1e-12),)
        assert result.principal_root == result.all_real_roots[0]
        assert result.residuals[0] < 1e-8
        assert 1 + result.complex_root_count == result.degree

    def test_no_spurious_root_where_the_amounts_span_193_decades(self):
        # One sign change, so one real rate at most: ln(-b/a)/8 = 55.52. The
        # iteration stops far from its roots; judged against the undiscounted
        # amounts, four wrong rates near 32 passed as roots.
        a, b = 2.375e-115, -1.944e78
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = general_irr(schedule((1.0, a), (9.0, b)))
        for rate in result.all_real_roots:
            assert rate == pytest.approx(math.log(-b / a) / 8, rel=1e-9)

    def test_estimates_polished_onto_one_rate_are_one_root(self):
        # x**9 = -a/b has one positive root, but four estimates stop short of
        # it on the positive side and each polishes onto it.
        a, b = 3.825123704809136e69, -4.472561125671863e186
        result = general_irr(schedule((1.0, a), (10.0, b)))
        assert result.all_real_roots == (pytest.approx(math.log(-b / a) / 9, rel=1e-12),)
        assert result.complex_root_count == 8

    def test_root_where_a_zero_amount_holds_the_largest_factor(self):
        # At the root, e^-r = 1e-320: the event at 0 carries the largest
        # factor, 1, and the other weighted terms underflow to 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = general_irr(schedule((0.0, 0.0), (1.0, -1e-320), (2.0, 1.0)))
        assert result.all_real_roots == (pytest.approx(-math.log(1e-320), rel=1e-12),)

    def test_amount_lost_beside_the_largest_is_a_typed_error(self):
        # Scaled beside 1e308, -1e-320 is 0, so one grid instant is left.
        with pytest.raises(NoRootError):
            general_irr(schedule((0.0, -1e-320), (1.0, 1e308)))

    def test_degree_cap_rejected(self):
        with pytest.raises(DiscretizationError):
            general_irr(schedule((0.0, -1.0), (1e-5, 0.5), (1.0, 1.0)))

    def test_seed_is_reproducible(self):
        sched = schedule((0.0, -2.0), (1.0, 1.1), (3.0, 0.4), (5.0, 0.9))
        a = general_irr(sched)
        b = general_irr(sched)
        assert a == b

    def test_iteration_stops_once_an_estimate_is_nan(self, monkeypatch):
        # Degree 1024 overflows the pairwise products at once; every
        # estimate is NaN from then on, so iterating longer is waste.
        calls = []
        evaluate = irr_module._evaluate

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(irr_module, "_evaluate", counted)
        with pytest.raises(
            RootConvergenceError, match=r"root iteration did not converge \(residual nan\)"
        ):
            general_irr(schedule((0.0, -1.0), (1.0, 0.1), (1024.0, 1.5)))
        assert len(calls) < 10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_iteration_is_a_typed_error(self):
        # Overflow inside the iteration is no warning to the caller.
        with pytest.raises(RootConvergenceError):
            general_irr(schedule((0.0, -3.0), (1.0, -0.5), (18.0, 0.2), (72.0, 3.0)))


@pytest.mark.parametrize("degree", [1, 63, 64, 65, 128, 256, 4096])
def test_blocked_evaluation_matches_horner(degree):
    # Degrees on both sides of the 64-coefficient row edges. |x| stays
    # below 1.1, so x**4096 keeps within float range.
    rng = np.random.default_rng(degree)
    coeffs = rng.normal(size=degree + 1)
    x = rng.uniform(0.5, 1.1, 300) * np.exp(2j * np.pi * rng.uniform(size=300))
    values, scale = _evaluate(_coefficient_rows(coeffs), x)
    expected_scale = np.polyval(np.abs(coeffs[::-1]), np.abs(x))
    assert np.all(np.abs(values - np.polyval(coeffs[::-1], x)) <= 1e-13 * expected_scale)
    assert np.all(np.abs(scale - expected_scale) <= 1e-13 * expected_scale)


def _seeded_schedule(seed):
    """Amounts of either sign at 3-21 instants of a year grid of degree
    8-60, starting at time 0: zero to several sign changes, so zero to
    several real rates."""
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(8, 61))
    middle = rng.choice(np.arange(1, degree), int(rng.integers(1, min(19, degree - 1) + 1)),
                        replace=False)
    times = [0, *sorted(middle.tolist()), degree]
    amounts = rng.normal(size=len(times))
    amounts[0], amounts[-1] = -abs(amounts[0]), abs(amounts[-1])
    return schedule(*zip(map(float, times), map(float, amounts)))


@pytest.mark.parametrize("seed", range(50))
def test_real_roots_match_companion_eigenvalues(seed):
    sched = _seeded_schedule(seed)
    result = general_irr(sched)
    times = np.array([e.time for e in sched.events])
    exponents = np.rint(times / result.base_step).astype(int)
    coeffs = np.zeros(exponents[-1] + 1)
    np.add.at(coeffs, exponents, [e.amount for e in sched.events])
    assert result.degree == len(coeffs) - 1
    x = np.roots(coeffs[::-1])
    x = x[(np.abs(x.imag) <= 1e-8 * (1.0 + np.abs(x))) & (x.real > 0.0)].real
    rates = -np.log(x) / result.base_step
    # Every reported rate is a real eigenvalue of the companion matrix.
    for rate in result.all_real_roots:
        assert np.min(np.abs(rates - rate)) < 1e-8
    # Every real eigenvalue is reported, strongly negative rates too: the
    # residual's tolerance scales with the discounted amounts there.
    for rate in rates:
        assert np.min(np.abs(np.subtract(result.all_real_roots, rate))) < 1e-8


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(1e-3, 1e4))
def test_scaling_amounts_leaves_roots_unchanged(scale):
    base = schedule((0.0, -1.0), (1.0, 2.3), (2.0, -1.32))
    scaled = schedule((0.0, -scale), (1.0, 2.3 * scale), (2.0, -1.32 * scale))
    a = general_irr(base)
    b = general_irr(scaled)
    assert len(a.all_real_roots) == len(b.all_real_roots)
    for x, y in zip(a.all_real_roots, b.all_real_roots):
        assert x == pytest.approx(y, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(power=st.integers(-1000, 1023))
def test_power_of_two_scaling_is_exact(power):
    # The amounts are scaled by a power of two before any sum, so one more
    # power of two changes no root and no relative residual.
    rows = ((0.0, -1.0), (1.0, 0.3), (2.5, 0.6), (4.0, -0.2), (6.0, 1.1))
    base = general_irr(schedule(*rows))
    scaled = general_irr(schedule(*((t, math.ldexp(a, power)) for t, a in rows)))
    assert base.all_real_roots and scaled.all_real_roots == base.all_real_roots
    assert scaled.residuals == base.residuals
    assert scaled.complex_root_count == base.complex_root_count


def _reference_roots(coeffs):
    """The root finder's step as first written, frozen: the full ``n x n``
    matrix of root differences on every step, Horner's rule across the
    row sums even for a one-row polynomial, and a NaN scan after every
    update. Any rewrite of the step must reproduce it bit for bit."""
    width = min(64, len(coeffs))
    rows = np.zeros((-(-len(coeffs) // width), width))
    rows.flat[: len(coeffs)] = coeffs
    rows = rows * (1.0 / coeffs[-1])
    degree = len(coeffs) - 1

    def horner(row_sums, step):
        total = row_sums[-1]
        for row in row_sums[-2::-1]:
            total = total * step + row
        return total

    def evaluate(x):
        powers = np.empty((width, len(x)), dtype=complex)
        powers[0] = 1.0
        powers[1:] = x
        np.cumprod(powers, axis=0, out=powers)
        values = horner((rows @ powers.view(float)).view(complex), powers[-1] * x)
        scale = horner(np.abs(rows) @ np.abs(powers), np.abs(x) ** width)
        return values, scale

    rng = np.random.default_rng(0)
    radius = 1.0 + float(np.max(np.abs(rows.ravel()[:degree])))
    angles = 2.0 * np.pi * (np.arange(degree) + rng.uniform(0.1, 0.9)) / degree
    roots = radius * np.exp(1j * angles)
    for _ in range(500):
        values, scale = evaluate(roots)
        if np.all(np.abs(values) <= 1e-14 * scale):
            return roots
        diffs = roots[:, None] - roots[None, :]
        np.fill_diagonal(diffs, 1.0)
        steps = values / np.prod(diffs, axis=1)
        roots = roots - steps
        if np.isnan(roots).any():
            break
        if float(np.max(np.abs(steps))) < 1e-12:
            return roots
    worst = float(np.max(np.abs(evaluate(roots)[0])))
    raise RootConvergenceError("root iteration did not converge", worst)


def _schedule_coeffs(*pairs):
    """Ascending coefficients of an integer-time schedule's polynomial."""
    coeffs = np.zeros(int(pairs[-1][0]) + 1)
    for t, a in pairs:
        coeffs[int(t)] += a
    return coeffs


PINNED_POLYNOMIALS = {
    **{f"normal-{d}": np.random.default_rng(d).normal(size=d + 1)
       for d in (1, 2, 3, 5, 8, 13, 21, 34, 40, 55, 63, 64, 65, 89, 100, 128, 129, 150, 200)},
    **{f"uniform-{d}": np.random.default_rng(1000 + d).uniform(-1.0, 1.0, d + 1)
       for d in (7, 31, 63, 64, 65, 127, 128, 129)},
    # Degree 72 fails at the fixed start seed though it is far below overflow.
    "found-72": _schedule_coeffs((0, -3.0), (1, -0.5), (18, 0.2), (72, 3.0)),
    # The benchmark's known faults, which overflow the denominators.
    **{f"fault-{n}": _schedule_coeffs((0, -1.0), (1, 0.1), (n, 1.5)) for n in (63, 64, 65, 128)},
}


@pytest.mark.parametrize("name", PINNED_POLYNOMIALS)
def test_durand_kerner_is_bit_identical_to_reference(name):
    # Same machine, same BLAS: roots are compared bit for bit, and a
    # failure must carry the same message.
    coeffs = PINNED_POLYNOMIALS[name]
    outcomes = []
    for solve in (_reference_roots, irr_module._durand_kerner):
        with np.errstate(all="ignore"):
            try:
                outcomes.append(solve(coeffs))
            except RootConvergenceError as error:
                outcomes.append(str(error))
    expected, got = outcomes
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, expected)


def test_degree_4096_solve_stays_small():
    # Blocks of root differences keep the iteration's memory at a few
    # rows of n, where the full matrix alone would be 256 MiB.
    tracemalloc.start()
    try:
        with pytest.raises(
            RootConvergenceError, match=r"^root iteration did not converge \(residual nan\)$"
        ):
            general_irr(schedule((0.0, -1.0), (1.0, 0.1), (4096.0, 1.5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_solver_stands_alone(tmp_path, monkeypatch):
    # irr.py and errors.py alone, in a package of their own, solve a schedule.
    package = tmp_path / "standalone_irr"
    package.mkdir()
    (package / "__init__.py").write_text("")
    source = Path(irr_module.__file__).parent
    for name in ("errors.py", "irr.py"):
        shutil.copy(source / name, package / name)
    monkeypatch.syspath_prepend(str(tmp_path))
    standalone = importlib.import_module("standalone_irr.irr")
    pairs = ((0.0, -2.0), (1.0, 1.1), (3.0, 0.4), (5.0, 0.9))
    got = standalone.general_irr(
        standalone.CashFlowSchedule(tuple(standalone.CashEvent(t, a) for t, a in pairs))
    )
    assert dataclasses.asdict(got) == dataclasses.asdict(general_irr(schedule(*pairs)))
