"""Cash-flow rate-of-return solving: closed-form cycle and polynomial routes."""

import math

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
from capreturn.irr import _coefficient_rows, _evaluate, _irr_argmax
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
        tau, _ = _irr_argmax(s, self.grid(s), 4096)

        def rate_gap(t):
            return s.path.evaluate(t) - growth_cycle_irr(with_rotation(s, t), intervals=65536)

        assert tau == pytest.approx(bisect_root(rate_gap, tau - 1.0, tau + 1.0), abs=1e-8)

    def test_not_below_golden_section(self, name):
        s = SEARCH_SCENARIOS[name]
        tau, value = _irr_argmax(s, self.grid(s), 4096)
        _, golden = refine_argmax(
            lambda t: growth_cycle_irr(with_rotation(s, t)), self.grid(s)
        )
        assert value == growth_cycle_irr(with_rotation(s, tau))
        assert value >= golden * (1.0 - 1e-12)


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
    # Every real eigenvalue is reported where no amount is discounted up
    # by more than 1e4: there the residual can meet its tolerance, a
    # fraction of sum(|C_k|).
    for rate in rates[rates * times[-1] > -math.log(1e4)]:
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
