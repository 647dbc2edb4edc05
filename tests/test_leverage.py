"""Equity returns under leverage and the break-even discount rate."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capreturn import (
    ConstantPath,
    DegenerateCapitalError,
    DomainError,
    GrowthScenario,
    InvalidLeverageError,
    InvestmentEvent,
    ReturnPath,
    SinSquaredPath,
    TabulatedPath,
    UnsupportedScheduleError,
    WipedOutEquityError,
    leveraged_discount_rate,
    leveraged_npv,
    rroc,
    rroe,
    rroe_argmax,
    with_rotation,
)
import capreturn
from capreturn import growth as growth_module
from capreturn import leverage as leverage_module
from capreturn import optimize as optimize_module
from oracles import bisect_root, refine_argmax

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

    def test_infinite_leverage_rejected(self):
        with pytest.raises(InvalidLeverageError, match="leverage ratio must be finite"):
            rroe(0.05, math.inf, 0.05)

    def test_nan_leverage_rejected(self):
        with pytest.raises(InvalidLeverageError, match="cannot be below -1"):
            rroe(0.05, math.nan, 0.03)

    @pytest.mark.parametrize("u", [1e308, -1e308])
    def test_result_beyond_float_range_is_a_typed_error(self, u):
        # 0.07 + 10 * (0.07 - u) overflows to an infinity of either sign.
        with pytest.raises(DegenerateCapitalError, match="return on equity is beyond float range"):
            rroe(0.07, 10.0, u)


@settings(max_examples=50)
@given(s=st.floats(-0.5, 0.5), u=st.floats(-0.2, 0.2))
def test_full_lending_is_exact_for_any_inputs(s, u):
    assert rroe(s, -1.0, u) == u


def test_infinite_leverage_rejected_by_the_closed_forms():
    s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
    with pytest.raises(InvalidLeverageError, match="leverage ratio must be finite"):
        leveraged_npv(s, 0.03, 0.02, math.inf)
    with pytest.raises(InvalidLeverageError, match="leverage ratio must be finite"):
        leveraged_discount_rate(s, math.inf, 0.02)


# Every function that takes a market rate, at leverage 1.
MARKET_RATE_USES = {
    "rroe": lambda s, u: rroe(0.05, 1.0, u),
    "leveraged_discount_rate": lambda s, u: leveraged_discount_rate(s, 1.0, u),
    "leveraged_npv": lambda s, u: leveraged_npv(s, 0.03, u, 1.0),
    "leverage_npv_ratio": lambda s, u: capreturn.leverage_npv_ratio(s, 0.03, u, 1.0),
    "rroe_argmax": lambda s, u: rroe_argmax(s, 1.0, u, [10.0, 20.0, 30.0]),
}


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("use", MARKET_RATE_USES.values(), ids=MARKET_RATE_USES.keys())
def test_non_finite_market_rate_rejected(use, u):
    s = GrowthScenario(1.0, 50.0, SinSquaredPath(0.05, 0.5, 100.0))
    with pytest.raises(InvalidLeverageError, match="^market rate must be finite$"):
        use(s, u)


def test_leverage_is_checked_before_the_market_rate():
    with pytest.raises(InvalidLeverageError, match="cannot be below -1"):
        rroe(0.05, math.nan, math.nan)


class TestBreakEvenRate:
    def test_unleveraged_is_the_average_rate(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        avg = s.path.time_average_rate(10.0)
        assert leveraged_discount_rate(s, 0.0, 0.03) == avg

    def test_market_rate_at_the_average_changes_nothing(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        avg = s.path.time_average_rate(10.0)
        assert leveraged_discount_rate(s, 3.0, avg) == avg

    def test_against_bisection_oracle(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        tau, lev, u = 10.0, 1.0, 0.03

        def initial_value_gap(rate):
            terminal = (1.0 + lev) * math.exp(0.05 * tau) - lev * math.exp(u * tau)
            return terminal * math.exp(-rate * tau) - 1.0

        oracle = bisect_root(initial_value_gap, 0.0, 1.0)
        value = leveraged_discount_rate(s, lev, u)
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
            rate = leveraged_discount_rate(with_rotation(s, tau), lev, u)
            terminal = (1.0 + lev) * math.exp(avg * tau) - lev * math.exp(u * tau)
            assert abs(terminal * math.exp(-rate * tau) - 1.0) < 1e-9
            checked += 1

    def test_wiped_out_equity(self):
        s = GrowthScenario(1.0, 100.0, ConstantPath(0.05))
        with pytest.raises(WipedOutEquityError):
            leveraged_discount_rate(s, 5.0, 0.10)

    def test_investments_unsupported(self):
        s = GrowthScenario(
            1.0, 10.0, ConstantPath(0.05), (InvestmentEvent(5.0, 0.5),)
        )
        with pytest.raises(UnsupportedScheduleError, match="investment-free"):
            leveraged_discount_rate(s, 1.0, 0.03)

    @pytest.mark.parametrize(
        "u, residual",
        [(0.11931471305599442, "2.061e-09"), (0.11931471805099453, "3.230e-07")],
    )
    def test_payoff_within_rounding_of_zero_is_wiped_out(self, u, residual):
        # At L = 1 these market rates leave a terminal equity payoff of
        # 1e-7 and 1e-10 of the unleveraged terminal capital, within
        # rounding of zero: the rate found fails its zero-value check.
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        with pytest.raises(WipedOutEquityError, match=f"within rounding of zero.*{residual}"):
            leveraged_discount_rate(s, 1.0, u)

    def test_small_payoff_above_rounding_keeps_its_rate(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))  # a payoff of 1e-6, as above
        assert leveraged_discount_rate(s, 1.0, 0.11931466805598202) == -1.3315510557824495

    def test_market_rate_beyond_float_range_is_a_typed_error(self):
        # -tau * (avg - u) is infinite, and so is its growth factor.
        s = GrowthScenario(1.0, 80.0, SinSquaredPath(0.05, 0.3, 80.0))
        with pytest.raises(DegenerateCapitalError, match=r"exp\(inf\) is beyond float range"):
            leveraged_discount_rate(s, -0.5, 1e308)

    def test_residual_that_is_not_a_number_fails_the_check(self, monkeypatch):
        # The fourth growth factor, exp(-rate * tau), made NaN.
        nan_at = iter([False, False, False, True])
        real = leverage_module._exp
        monkeypatch.setattr(leverage_module, "_exp", lambda x: math.nan if next(nan_at) else real(x))
        with pytest.raises(WipedOutEquityError, match="residual nan"):
            leveraged_discount_rate(GrowthScenario(1.0, 10.0, ConstantPath(0.05)), 1.0, 0.03)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "grid, message",
        [
            ([], "rotation grid must not be empty"),
            ([0.0, 5.0], "rotation grid points must be finite and > 0"),
            ([math.nan], "rotation grid points must be finite and > 0"),
            ([math.inf], "rotation grid points must be finite and > 0"),
        ],
        ids=["empty", "zero", "nan", "inf"],
    )
    def test_bad_grid_is_a_domain_error(self, grid, message):
        with pytest.raises(DomainError, match=message):
            rroe_argmax(hump_scenario(), 1.0, 0.01, grid)

    def test_full_lending_has_no_optimum(self):
        with pytest.raises(InvalidLeverageError):
            rroe_argmax(hump_scenario(), -1.0, 0.03, [10.0, 20.0])

    def test_infinite_leverage_has_no_optimum(self):
        with pytest.raises(InvalidLeverageError, match="must be finite"):
            rroe_argmax(hump_scenario(), math.inf, 0.03, [10.0, 20.0])

    def test_optimum_whose_equity_return_overflows(self):
        # The optimum does not depend on the market rate; its equity return
        # at u = 1e308 and L = 10 is beyond float range.
        s = GrowthScenario(1.0, 80.0, SinSquaredPath(0.05, 0.3, 80.0))
        grid = np.linspace(80.0 / 200, 80.0, 200)
        tau = rroe_argmax(s, 10.0, 1e308, grid)
        assert tau == rroe_argmax(s, 10.0, 0.02, grid)
        with pytest.raises(DegenerateCapitalError, match="return on equity"):
            rroe(rroc(with_rotation(s, tau)), 10.0, 1e308)

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
def passes(monkeypatch):
    """The rotation length of every pass made by rroe_argmax, with the
    remembered search forgotten first."""
    calls = []
    original = optimize_module._segments

    def counted(*args):
        calls.append(args[0].rotation_length)
        return original(*args)

    optimize_module._rroc_argmax.cache_clear()
    monkeypatch.setattr(optimize_module, "_segments", counted)
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

    def test_other_market_rates_and_leverages_reuse_the_search(self, passes):
        s = hump_scenario()
        first = rroe_argmax(s, 1.0, 0.01, self.GRID, intervals=256)
        assert passes == [90.0]
        passes.clear()
        # An equal scenario and grid, built afresh, hit the same search.
        again = [
            rroe_argmax(hump_scenario(), leverage, u, list(self.GRID), intervals=256)
            for leverage, u in ((1.0, 0.05), (-0.5, 0.0), (5.0, 0.2))
        ]
        assert passes == []
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
    def test_changed_inputs_search_afresh(self, passes, change):
        s = hump_scenario()
        rroe_argmax(s, 1.0, 0.01, self.GRID, intervals=256)
        passes.clear()
        s2, grid, n = change(s, self.GRID, 256)
        rroe_argmax(s2, 1.0, 0.01, grid, intervals=n)
        assert len(passes) == 1

    def test_unhashable_path_is_searched_uncached(self, passes):
        s = GrowthScenario(1.0, 10.0, MutablePath(0.05))
        with pytest.raises(TypeError):
            hash(s)
        results = []
        for u in (0.01, 0.02):
            passes.clear()
            results.append(rroe_argmax(s, 1.0, u, (2.0, 4.0, 6.0), intervals=64))
            assert passes == [6.0]
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
                lambda tau: leveraged_discount_rate(with_rotation(s, tau), 1.0, u), grid
            )
            return tau_star

        omega_stars = [omega_argmax(u) for u in u_values]
        rroe_stars = [rroe_argmax(s, 1.0, u, grid) for u in u_values]
        step = grid[1] - grid[0]
        assert max(rroe_stars) - min(rroe_stars) <= step
        assert max(omega_stars) - min(omega_stars) > step


def noisy_scenario(seed):
    """A noisy piecewise-linear hump with investment events and
    withdrawals, built like the benchmark's ``events`` inputs."""
    rng = np.random.default_rng(seed)
    tau = rng.uniform(20.0, 80.0)
    times = np.linspace(0.0, tau, 300)
    rates = (rng.uniform(0.0, 0.02) + rng.uniform(0.03, 0.05) * np.sin(math.pi * times / tau)
             + rng.normal(0.0, 0.01, times.size))
    slots = (np.arange(12) + rng.uniform(0.1, 0.9, 12)) / 12
    amounts = np.where(rng.uniform(size=12) < 0.5, rng.uniform(0.05, 0.5, 12), -0.1)
    events = tuple(InvestmentEvent(float(t), float(a))
                   for t, a in zip(tau * (0.02 + 0.96 * slots), amounts))
    path = TabulatedPath(tuple(zip(times.tolist(), rates.tolist())))
    return GrowthScenario(1.0, tau, path, events), list(np.linspace(0.3 * tau, tau, 5))


class TestRrocSearch:
    """The capital-return search behind rroe_argmax: one pass over the
    longest rotation, then the root of r(tau) - rroc(tau)."""

    def test_matches_the_first_order_condition_on_a_hump(self):
        s = GrowthScenario(1.0, 80.0, SinSquaredPath(0.05, 0.3, 80.0))
        tau = rroe_argmax(s, 1.0, 0.02, np.linspace(0.4, 80.0, 200))

        def rate_gap(t):
            return s.path.evaluate(t) - rroc(with_rotation(s, t), intervals=65536)

        assert tau == pytest.approx(bisect_root(rate_gap, 45.0, 55.0), abs=1e-8)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_not_below_golden_section_on_noisy_events(self, seed):
        s, grid = noisy_scenario(seed)
        golden, _ = refine_argmax(lambda t: rroc(with_rotation(s, t)), grid)
        tau = rroe_argmax(s, 1.0, 0.02, grid)
        assert grid[0] <= tau <= grid[-1]
        reached = rroc(with_rotation(s, tau))
        assert reached >= rroc(with_rotation(s, golden)) * (1.0 - 1e-12)

    def test_few_capital_return_passes(self, passes):
        # The root is refined on the pass over the longest rotation, and
        # the optimum is not valued.
        rroe_argmax(hump_scenario(), 1.0, 0.02, TestSharedSearch.GRID)
        assert passes == [90.0]

    def test_one_pass_and_no_capital_return_on_a_path_with_events(self, monkeypatch):
        s, grid = noisy_scenario(4)
        calls = []
        original = growth_module._segments

        def counted(*args):
            calls.append("_segments")
            return original(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("a rotation was valued")

        optimize_module._rroc_argmax.cache_clear()
        for module in (capreturn, growth_module):
            monkeypatch.setattr(module, "rroc", forbidden)
            monkeypatch.setattr(module, "expected_values", forbidden)
        monkeypatch.setattr(growth_module, "_segments", counted)
        monkeypatch.setattr(optimize_module, "_segments", counted)
        tau = rroe_argmax(s, 1.0, 0.02, grid, intervals=1024)
        assert grid[0] <= tau <= grid[-1]
        assert calls == ["_segments"]

    @pytest.mark.parametrize("knee", [19.5, 20.0], ids=["before", "after"])
    def test_grid_point_on_an_event(self, passes, knee):
        # An injection at t = 20, which is also a grid point and a knot.
        # The rate falls steeply over [knee, knee + 0.5], so the spot rate
        # meets the capital return just before the event or just after it,
        # where the search extends the post-jump node. A rotation ending
        # at 20 drops the event.
        knots = ((0.0, 0.02), (knee, 0.10), (knee + 0.5, -0.5), (40.0, -0.5))
        s = GrowthScenario(1.0, 40.0, TabulatedPath(knots), (InvestmentEvent(20.0, 5.0),))
        assert with_rotation(s, 20.0).investments == ()
        tau = rroe_argmax(s, 1.0, 0.02, (10.0, 20.0, 30.0))
        assert passes == [30.0]

        def rate_gap(t):
            return s.path.evaluate(t) - rroc(with_rotation(s, t), intervals=65536)

        assert tau == pytest.approx(bisect_root(rate_gap, knee, knee + 0.5), abs=1e-8)

    def test_one_point_grid(self, passes):
        assert optimize_module._rroc_argmax(hump_scenario(), (40.0,), 256) == 40.0
        assert passes == [40.0]

    @pytest.mark.parametrize("grid, end", [((10.0, 30.0), 30.0), ((70.0, 90.0), 70.0)])
    def test_maximum_at_an_end_of_the_grid(self, grid, end):
        # The hump's capital return peaks near tau = 62: it still rises
        # at 30 and falls from 70 on.
        assert rroe_argmax(hump_scenario(), 1.0, 0.02, grid) == end

    def test_unsorted_grid_with_a_duplicate_point(self):
        s = hump_scenario()
        shuffled = rroe_argmax(s, 1.0, 0.02, (90.0, 10.0, 50.0, 50.0, 30.0, 70.0))
        assert shuffled == rroe_argmax(s, 1.0, 0.02, (10.0, 30.0, 50.0, 50.0, 70.0, 90.0))
        # The repeated cut adds a panel of zero width, and no candidate.
        distinct = rroe_argmax(s, 1.0, 0.02, TestSharedSearch.GRID)
        assert shuffled == pytest.approx(distinct, abs=1e-9 * CYCLE)

    def test_constant_path(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        found = []
        for _ in range(2):
            optimize_module._rroc_argmax.cache_clear()
            found.append(optimize_module._rroc_argmax(s, (2.0, 4.0, 6.0), 64))
        # The capital return is flat: the shortest rotation wins.
        assert found == [2.0, 2.0]

    @pytest.mark.parametrize(
        "scenario",
        [
            GrowthScenario(1.0, 100.0, ConstantPath(8.0)),
            GrowthScenario(1.0, 10.0, ConstantPath(0.05), (InvestmentEvent(5.0, -2.0),)),
        ],
        ids=["overflow", "nonpositive"],
    )
    def test_degenerate_capital_raised_by_the_full_pass(self, passes, scenario):
        grid = np.linspace(1.0, scenario.rotation_length, 10)
        with pytest.raises(DegenerateCapitalError):
            rroe_argmax(scenario, 1.0, 0.02, grid)
        assert passes == [scenario.rotation_length]

    def test_nonpositive_rotation_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            rroe_argmax(hump_scenario(), 1.0, 0.02, (0.0, 10.0))
