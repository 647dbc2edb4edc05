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
from capreturn.irr import _irr_argmax
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
        polyval = np.polyval

        def counted(*args):
            calls.append(args)
            return polyval(*args)

        monkeypatch.setattr(np, "polyval", counted)
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
