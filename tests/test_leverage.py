"""Equity returns under leverage and the break-even discount rate."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capreturn import (
    ConstantPath,
    GrowthScenario,
    InvalidLeverageError,
    InvestmentEvent,
    LeverageSpec,
    ReturnPath,
    SinSquaredPath,
    UnsupportedScheduleError,
    WipedOutEquityError,
    leveraged_discount_rate,
    refine_argmax,
    rroc,
    rroe,
    rroe_argmax,
    with_rotation,
)
from capreturn import leverage as leverage_module
from oracles import bisect_root

MEAN, SHAPE, CYCLE = 0.05, 0.5, 100.0


def hump_scenario():
    return GrowthScenario(1.0, CYCLE, SinSquaredPath(MEAN, SHAPE, CYCLE))


class TestRroe:
    def test_borrowing_amplifies_the_spread(self):
        assert rroe(0.05, 1.0, 0.03) == pytest.approx(0.07)

    def test_unleveraged_is_the_capital_return(self):
        assert rroe(0.05, 0.0, 0.09) == 0.05

    def test_expensive_debt_drags_the_return(self):
        assert rroe(0.02, 2.0, 0.05) < 0.02

    def test_full_lending_returns_the_market_rate_exactly(self):
        assert rroe(0.0123456, -1.0, 0.0789) == 0.0789

    def test_below_minus_one_rejected(self):
        with pytest.raises(InvalidLeverageError):
            rroe(0.05, -1.01, 0.03)


@settings(max_examples=50)
@given(s=st.floats(-0.5, 0.5), u=st.floats(-0.2, 0.2))
def test_full_lending_is_exact_for_any_inputs(s, u):
    assert rroe(s, -1.0, u) == u


class TestLeverageSpec:
    def test_valid(self):
        spec = LeverageSpec(leverage=1.0, market_rate=0.03, equity=0.5)
        assert spec.equity == 0.5

    def test_invalid_leverage(self):
        with pytest.raises(InvalidLeverageError):
            LeverageSpec(leverage=-2.0, market_rate=0.03)

    def test_nan_leverage_rejected(self):
        with pytest.raises(InvalidLeverageError):
            LeverageSpec(leverage=math.nan, market_rate=0.03)

    def test_non_finite_market_rate_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            LeverageSpec(leverage=1.0, market_rate=math.nan)

    def test_invalid_equity(self):
        with pytest.raises(ValueError):
            LeverageSpec(leverage=1.0, market_rate=0.03, equity=0.0)


class TestBreakEvenRate:
    def test_unleveraged_is_the_average_rate(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        avg = s.path.time_average_rate(10.0)
        assert leveraged_discount_rate(s, 10.0, 0.0, 0.03) == avg

    def test_market_rate_at_the_average_changes_nothing(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        avg = s.path.time_average_rate(10.0)
        assert leveraged_discount_rate(s, 10.0, 3.0, avg) == avg

    def test_against_bisection_oracle(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        tau, lev, u = 10.0, 1.0, 0.03

        def initial_value_gap(rate):
            terminal = (1.0 + lev) * math.exp(0.05 * tau) - lev * math.exp(u * tau)
            return terminal * math.exp(-rate * tau) - 1.0

        oracle = bisect_root(initial_value_gap, 0.0, 1.0)
        value = leveraged_discount_rate(s, tau, lev, u)
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value == pytest.approx(0.0666589493, abs=1e-9)

    def test_zero_value_identity_holds_at_random_points(self):
        rng = np.random.default_rng(42)
        s = hump_scenario()
        checked = 0
        while checked < 20:
            tau = rng.uniform(5.0, CYCLE)
            lev = rng.uniform(-0.9, 4.0)
            u = rng.uniform(0.0, 2.0 * MEAN)
            avg = s.path.time_average_rate(tau)
            if 1.0 + lev * (1.0 - math.exp(-tau * (avg - u))) <= 0.0:
                continue
            rate = leveraged_discount_rate(s, tau, lev, u)
            terminal = (1.0 + lev) * math.exp(avg * tau) - lev * math.exp(u * tau)
            assert abs(terminal * math.exp(-rate * tau) - 1.0) < 1e-9
            checked += 1

    def test_wiped_out_equity(self):
        s = GrowthScenario(1.0, 100.0, ConstantPath(0.05))
        with pytest.raises(WipedOutEquityError):
            leveraged_discount_rate(s, 100.0, 5.0, 0.10)

    def test_investments_unsupported(self):
        s = GrowthScenario(
            1.0, 10.0, ConstantPath(0.05), (InvestmentEvent(5.0, 0.5),)
        )
        with pytest.raises(UnsupportedScheduleError, match="investment-free"):
            leveraged_discount_rate(s, 10.0, 1.0, 0.03)


class TestRroeArgmax:
    def test_market_rate_does_not_move_the_optimum(self):
        s = hump_scenario()
        grid = np.linspace(CYCLE / 200, CYCLE, 200)
        argmaxes = [
            rroe_argmax(s, 1.0, u, grid)
            for u in (0.0, 0.5 * MEAN, 1.0 * MEAN, 2.0 * MEAN)
        ]
        step = grid[1] - grid[0]
        assert max(argmaxes) - min(argmaxes) <= step

    def test_unleveraged_matches_capital_return_optimum(self):
        s = hump_scenario()
        grid = np.linspace(CYCLE / 200, CYCLE, 200)
        tau_rroc, _ = refine_argmax(
            lambda tau: rroc(with_rotation(s, tau)), grid
        )
        assert rroe_argmax(s, 0.0, 0.03, grid) == pytest.approx(
            tau_rroc, abs=grid[1] - grid[0]
        )

    def test_heavy_leverage_matches_unleveraged_optimum(self):
        s = hump_scenario()
        grid = np.linspace(CYCLE / 200, CYCLE, 200)
        a = rroe_argmax(s, 5.0, 0.0, grid)
        b = rroe_argmax(s, 0.0, 0.0, grid)
        assert a == pytest.approx(b, abs=grid[1] - grid[0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            rroe_argmax(hump_scenario(), 1.0, 0.03, [])

    def test_full_lending_has_no_optimum(self):
        with pytest.raises(InvalidLeverageError):
            rroe_argmax(hump_scenario(), -1.0, 0.03, [10.0, 20.0])

    @pytest.mark.parametrize("leverage", [-0.5, 0.0, 1.0, 5.0])
    def test_matches_a_search_over_the_equity_return(self, leverage):
        s = hump_scenario()
        grid = np.linspace(CYCLE / 50, CYCLE, 50)
        u = 0.03
        tau_rroe, _ = refine_argmax(
            lambda tau: rroe(rroc(with_rotation(s, tau)), leverage, u), grid
        )
        assert rroe_argmax(s, leverage, u, grid) == pytest.approx(
            tau_rroe, abs=grid[1] - grid[0]
        )


@pytest.fixture
def rroc_calls(monkeypatch):
    """Counts the capital-return evaluations made by rroe_argmax, with the
    remembered search forgotten first."""
    calls = []

    def counted(scenario, **kwargs):
        calls.append(scenario.rotation_length)
        return rroc(scenario, **kwargs)

    leverage_module._rroc_argmax.cache_clear()
    monkeypatch.setattr(leverage_module, "rroc", counted)
    return calls


@dataclass
class MutablePath(ReturnPath):
    """A path of a non-frozen dataclass, which cannot be hashed."""

    rate: float

    def domain(self):
        return (-math.inf, math.inf)

    def _rates(self, ts):
        return np.full_like(ts, self.rate, dtype=float)


class TestSharedSearch:
    GRID = (10.0, 30.0, 50.0, 70.0, 90.0)

    def test_other_market_rates_and_leverages_reuse_the_search(self, rroc_calls):
        s = hump_scenario()
        first = rroe_argmax(s, 1.0, 0.01, self.GRID, intervals=256)
        assert rroc_calls
        rroc_calls.clear()
        # An equal scenario and grid, built afresh, hit the same search.
        again = [
            rroe_argmax(hump_scenario(), leverage, u, list(self.GRID), intervals=256)
            for leverage, u in ((1.0, 0.05), (-0.5, 0.0), (5.0, 0.2))
        ]
        assert rroc_calls == []
        assert again == [first] * 3

    @pytest.mark.parametrize(
        "change",
        [
            lambda s, grid, n: (s, grid[:-1], n),
            lambda s, grid, n: (s, grid, 512),
            lambda s, grid, n: (GrowthScenario(2.0, CYCLE, s.path), grid, n),
        ],
        ids=["grid", "intervals", "scenario"],
    )
    def test_changed_inputs_search_afresh(self, rroc_calls, change):
        s = hump_scenario()
        rroe_argmax(s, 1.0, 0.01, self.GRID, intervals=256)
        rroc_calls.clear()
        s2, grid, n = change(s, self.GRID, 256)
        rroe_argmax(s2, 1.0, 0.01, grid, intervals=n)
        assert rroc_calls

    def test_unhashable_path_is_searched_uncached(self, rroc_calls):
        s = GrowthScenario(1.0, 10.0, MutablePath(0.05))
        with pytest.raises(TypeError):
            hash(s)
        results = []
        for u in (0.01, 0.02):
            rroc_calls.clear()
            results.append(rroe_argmax(s, 1.0, u, (2.0, 4.0, 6.0), intervals=64))
            assert rroc_calls
        assert results[0] == results[1]


class TestBreakEvenConflictsWithEquityReturn:
    def test_break_even_optimum_moves_with_the_market_rate(self):
        # The equity-return optimum ignores the market rate; the
        # break-even discount rate's optimum does not. The two criteria
        # cannot both describe wealth accumulation.
        s = hump_scenario()
        grid = np.linspace(CYCLE / 100, CYCLE, 100)
        u_values = (0.0, 0.01, 0.02)

        def omega_argmax(u):
            tau_star, _ = refine_argmax(
                lambda tau: leveraged_discount_rate(s, tau, 1.0, u), grid
            )
            return tau_star

        omega_stars = [omega_argmax(u) for u in u_values]
        rroe_stars = [rroe_argmax(s, 1.0, u, grid) for u in u_values]
        step = grid[1] - grid[0]
        assert max(rroe_stars) - min(rroe_stars) <= step
        assert max(omega_stars) - min(omega_stars) > step
