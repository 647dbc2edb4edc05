"""Perpetual-rotation present values and the leverage ratio identities."""

import inspect
import math

import numpy as np
import pytest

from capreturn import (
    ConstantPath,
    DegenerateCapitalError,
    GrowthScenario,
    IndeterminateRatioError,
    InvalidDiscountError,
    InvalidLeverageError,
    SinSquaredPath,
    UnsupportedScheduleError,
    InvestmentEvent,
    growth_cycle_irr,
    leverage_npv_ratio,
    leveraged_discount_rate,
    leveraged_npv,
    npv,
    refine_argmax,
    with_rotation,
)
from oracles import npv_rotation_series

MEAN, SHAPE, CYCLE = 0.05, 0.5, 100.0


def constant_scenario(rate=0.05, tau=10.0, k0=1.0):
    return GrowthScenario(k0, tau, ConstantPath(rate))


class TestRotationFromTheScenario:
    """Every closed form values the scenario's own rotation; another
    rotation is a rescoped scenario, whose events after its end drop."""

    CLOSED_FORMS = (growth_cycle_irr, npv, leveraged_npv, leverage_npv_ratio,
                    leveraged_discount_rate)

    @pytest.mark.parametrize("closed_form", CLOSED_FORMS, ids=lambda f: f.__name__)
    def test_no_separate_rotation_length(self, closed_form):
        assert "rotation_length" not in inspect.signature(closed_form).parameters

    def test_another_rotation_through_with_rotation(self):
        s = GrowthScenario(1.0, 10.0, SinSquaredPath(MEAN, SHAPE, CYCLE))
        assert npv(s, 0.03) == pytest.approx(-0.1285008407498754, rel=1e-12)
        assert npv(with_rotation(s, 50.0), 0.03) == 2.2118014374033925

    def test_shorter_rotation_drops_the_later_events(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05), (InvestmentEvent(5.0, 0.5),))
        with pytest.raises(UnsupportedScheduleError, match="investment-free"):
            npv(s, 0.03)
        assert npv(with_rotation(s, 4.0), 0.03) == 0.7365351019850969


class TestNpv:
    def test_zero_when_discounting_at_the_average_rate(self):
        s = constant_scenario()
        assert npv(s, 0.05) == pytest.approx(0.0, abs=1e-10)

    def test_against_rotation_series_oracle(self):
        s = constant_scenario()
        value = npv(s, 0.03)
        oracle = npv_rotation_series(1.0, 0.05, 10.0, 0.03, terms=2000)
        assert value == pytest.approx(oracle, rel=1e-9)
        assert value == pytest.approx(0.854237357, abs=1e-9)

    def test_negative_when_discount_dominates(self):
        s = constant_scenario()
        assert npv(s, 0.5) < 0.0

    def test_scales_with_initial_capital(self):
        small = npv(constant_scenario(k0=1.0), 0.03)
        large = npv(constant_scenario(k0=7.0), 0.03)
        assert large == pytest.approx(7.0 * small, rel=1e-12)

    def test_nonpositive_discount_rejected(self):
        with pytest.raises(InvalidDiscountError):
            npv(constant_scenario(), 0.0)

    def test_nan_discount_rejected(self):
        with pytest.raises(InvalidDiscountError):
            npv(constant_scenario(), math.nan)

    @pytest.mark.parametrize(
        "closed_form",
        [
            lambda s: npv(s, 0.03),
            lambda s: leveraged_npv(s, 0.03, 0.02, 1.0),
            lambda s: leverage_npv_ratio(s, 0.03, 0.02, 1.0),
        ],
        ids=["npv", "leveraged_npv", "leverage_npv_ratio"],
    )
    def test_investments_unsupported(self, closed_form):
        s = GrowthScenario(
            1.0, 10.0, ConstantPath(0.05), (InvestmentEvent(5.0, 0.5),)
        )
        with pytest.raises(UnsupportedScheduleError, match="investment-free"):
            closed_form(s)

    @pytest.mark.parametrize("d_tau", [0.2, 0.3, 0.5, 1.0])
    def test_perpetuity_consistency(self, d_tau):
        tau = 10.0
        d = d_tau / tau
        s = constant_scenario(rate=0.06, tau=tau)
        oracle = npv_rotation_series(1.0, 0.06, tau, d, terms=2000)
        assert npv(s, d) == pytest.approx(oracle, rel=1e-9)


class TestLeveragedNpv:
    def test_collapses_at_zero_leverage(self):
        s = constant_scenario()
        assert leveraged_npv(s, 0.03, 0.04, 0.0) == pytest.approx(
            npv(s, 0.03), abs=1e-12
        )

    @pytest.mark.parametrize("lev", [-0.5, 0.0, 1.0, 3.0])
    @pytest.mark.parametrize("rate", [0.03, 0.07])
    def test_market_rate_equal_to_discount_gives_one_plus_leverage(self, lev, rate):
        s = constant_scenario()
        ratio = leveraged_npv(s, rate, rate, lev) / npv(s, rate)
        assert ratio == pytest.approx(1.0 + lev, abs=1e-9)

    def test_full_lending_at_market_discount_is_worthless(self):
        s = constant_scenario()
        assert leveraged_npv(s, 0.03, 0.03, -1.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_below_minus_one_rejected(self):
        with pytest.raises(InvalidLeverageError):
            leveraged_npv(constant_scenario(), 0.03, 0.03, -1.5)


class TestLeverageRatio:
    def test_ratio_at_equal_rates(self):
        s = constant_scenario()
        assert leverage_npv_ratio(s, 0.03, 0.03, 2.0) == pytest.approx(
            3.0, abs=1e-9
        )

    def test_market_rate_at_the_average_kills_the_effect(self):
        s = constant_scenario()
        assert leverage_npv_ratio(s, 0.03, 0.05, 4.0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_same_ratio_for_different_discount_levels(self):
        s = constant_scenario()
        lo = leverage_npv_ratio(s, 0.02, 0.02, 2.0)
        hi = leverage_npv_ratio(s, 0.08, 0.08, 2.0)
        assert lo == pytest.approx(hi, abs=1e-9)

    # Near d = 0.05 both forms of the ratio divide by a difference that
    # cancels, and they round apart by more than 1e-9.
    @pytest.mark.parametrize("d, u", [(0.05, 0.03), (0.05 - 1e-9, 0.02), (0.05 - 5e-11, 0.02)])
    def test_singular_when_average_rate_meets_discount(self, d, u):
        s = constant_scenario()
        with pytest.raises(IndeterminateRatioError):
            leverage_npv_ratio(s, d, u, 1.0)

    def test_determinate_just_outside_the_singular_band(self):
        ratio = leverage_npv_ratio(constant_scenario(), 0.05 - 1e-8, 0.02, 1.0)
        assert ratio == pytest.approx(2591818.92, rel=1e-8)

    def test_integrates_the_path_once(self, monkeypatch):
        calls = []
        average = ConstantPath.time_average_rate

        def counted(path, horizon, **kwargs):
            calls.append(horizon)
            return average(path, horizon, **kwargs)

        monkeypatch.setattr(ConstantPath, "time_average_rate", counted)
        leverage_npv_ratio(constant_scenario(), 0.03, 0.02, 1.0)
        assert calls == [10.0]

    @pytest.mark.parametrize(
        "u,d,above_one",
        [
            (0.03, 0.04, True),   # spread positive on both rates
            (0.03, 0.06, False),  # value negative, borrowing still beats market
            (0.07, 0.04, False),  # borrowing above what capital returns
            (0.07, 0.06, True),   # both spreads negative
        ],
    )
    def test_sign_pattern_of_the_effect(self, u, d, above_one):
        s = constant_scenario(rate=0.05)
        ratio = leverage_npv_ratio(s, d, u, 2.0)
        assert (ratio > 1.0) == above_one


class TestNpvArgmaxDrift:
    def test_higher_discount_prefers_shorter_rotations(self):
        base = GrowthScenario(1.0, CYCLE, SinSquaredPath(MEAN, SHAPE, CYCLE))
        grid = np.linspace(CYCLE / 200, CYCLE, 200)
        argmaxes = []
        for d in (0.5 * MEAN, 1.0 * MEAN, 1.5 * MEAN):
            tau_star, _ = refine_argmax(
                lambda tau, d=d: npv(with_rotation(base, tau), d), grid
            )
            argmaxes.append(tau_star)
        assert argmaxes[0] > argmaxes[1] > argmaxes[2]


FAST = constant_scenario(rate=8.0, tau=100.0)  # exp(100 * 8) overflows a float
RICH = constant_scenario(rate=0.5, k0=1e307)  # finite growth, a value beyond range


@pytest.mark.parametrize(
    "closed_form",
    [
        lambda: npv(FAST, 0.05),
        lambda: leveraged_npv(FAST, 0.05, 0.02, 1.0),
        lambda: leverage_npv_ratio(FAST, 0.05, 0.02, 1.0),
        lambda: leveraged_discount_rate(FAST, 1.0, 0.02),
        lambda: npv(RICH, 0.05),
        lambda: leveraged_npv(RICH, 0.05, 0.02, 1.0),
        lambda: npv(constant_scenario(), 1e-20),
    ],
    ids=["npv", "leveraged_npv", "leverage_npv_ratio", "leveraged_discount_rate",
         "npv-value", "leveraged_npv-value", "npv-tiny-discount"],
)
def test_beyond_float_range_is_a_typed_error(closed_form):
    with pytest.raises(DegenerateCapitalError, match="float range"):
        closed_form()
