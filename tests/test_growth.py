"""Capital trajectories and rotation-averaged return on capital."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capreturn import (
    ConstantPath,
    DegenerateCapitalError,
    DomainError,
    GrowthScenario,
    InvestmentEvent,
    ReversedPath,
    SinSquaredPath,
    TabulatedPath,
    capital_at,
    expected_capitalization,
    expected_profit_rate,
    expected_values,
    parse_scenario,
    rroc,
    with_rotation,
)
from capreturn import growth as growth_module
from oracles import (
    capital_by_spans,
    capital_by_stepping,
    linear_rate_integral,
    midpoint_integral,
)

MEAN, SHAPE, CYCLE = 0.05, 0.5, 100.0
# Kinks off every uniform grid over [0, 20].
KINKED = ((0.0, 0.08), (3.3, 0.01), (7.77, 0.06), (12.1, -0.02), (16.45, 0.05), (20.0, 0.03))
# Half of the domain slack past the end of a 100-year domain, and two slacks.
HALF_SLACK, TWO_SLACKS = 5e-8, 2e-7
HUMP_JSON = {"kind": "sin_squared", "mean_rate": MEAN, "shape": SHAPE, "full_cycle": CYCLE}


def hump_scenario(tau=CYCLE, k0=1.0):
    return GrowthScenario(k0, tau, SinSquaredPath(MEAN, SHAPE, CYCLE))


class TestCapitalAt:
    def test_exponential_closed_form(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        assert capital_at(s, 10.0) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_starts_at_initial_capital(self):
        assert capital_at(hump_scenario(), 0.0) == 1.0

    def test_event_jump_closed_form(self):
        s = GrowthScenario(
            1.0, 10.0, ConstantPath(0.05), (InvestmentEvent(5.0, 0.5),)
        )
        expected = math.exp(0.5) + 0.5 * math.exp(0.25)
        assert capital_at(s, 10.0) == pytest.approx(expected, rel=1e-12)

    def test_event_jump_against_stepping_oracle(self):
        path = SinSquaredPath(MEAN, SHAPE, CYCLE)
        events = (InvestmentEvent(20.0, 0.7), InvestmentEvent(55.0, -0.3))
        s = GrowthScenario(2.0, 90.0, path, events)
        oracle = capital_by_stepping(path, 2.0, events, 77.0)
        assert capital_at(s, 77.0) == pytest.approx(oracle, rel=1e-8)

    def test_post_jump_value_at_event_time(self):
        s = GrowthScenario(
            1.0, 10.0, ConstantPath(0.0), (InvestmentEvent(5.0, 0.5),)
        )
        assert capital_at(s, 5.0) == pytest.approx(1.5)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_exact_on_tabulated_path_with_events(self, reverse):
        path = TabulatedPath(KINKED)
        if reverse:
            path = ReversedPath(path, 20.0)

        def span(a, b):
            if reverse:
                return linear_rate_integral(KINKED, 20.0 - b, 20.0 - a)
            return linear_rate_integral(KINKED, a, b)

        events = (InvestmentEvent(5.2, 0.6), InvestmentEvent(12.1, -0.4))
        s = GrowthScenario(1.5, 20.0, path, events)
        for t in (3.0, 5.2, 9.9, 20.0):
            exact = capital_by_spans(span, 1.5, events, t)
            assert capital_at(s, t) == pytest.approx(exact, rel=1e-12)
        # Accrual profit over the rotation is the capital gained net of
        # the amounts put in.
        gain = capital_by_spans(span, 1.5, events, 20.0) - 1.5 - 0.2
        assert expected_profit_rate(s) * 20.0 == pytest.approx(gain, rel=1e-12)

    def test_outside_rotation_rejected(self):
        with pytest.raises(DomainError):
            capital_at(hump_scenario(), CYCLE + 1.0)
        with pytest.raises(DomainError):
            capital_at(hump_scenario(), -0.5)

    def test_slack_does_not_lengthen_the_rotation(self):
        s = hump_scenario()
        assert capital_at(s, CYCLE + HALF_SLACK) == capital_at(s, CYCLE)

    def test_divestment_below_zero_is_degenerate(self):
        s = GrowthScenario(
            1.0, 10.0, ConstantPath(0.05), (InvestmentEvent(5.0, -2.0),)
        )
        with pytest.raises(DegenerateCapitalError):
            capital_at(s, 9.0)

    # The same semantics on the Simpson pass and on a tabulated path's
    # exact integral, which needs no pass.
    SIMPSON_AND_EXACT = pytest.mark.parametrize("exact", [False, True], ids=["simpson", "exact"])

    @staticmethod
    def flat(rate, tau, exact):
        return TabulatedPath(((0.0, rate), (tau, rate))) if exact else ConstantPath(rate)

    @SIMPSON_AND_EXACT
    def test_nonpositive_capital_from_its_event_on(self, exact):
        events = (InvestmentEvent(2.0, 0.5), InvestmentEvent(5.0, -2.0))
        s = GrowthScenario(1.0, 10.0, self.flat(0.05, 10.0, exact), events)
        before = math.exp(0.245) + 0.5 * math.exp(0.145)
        assert capital_at(s, 4.9) == pytest.approx(before, rel=1e-12)
        message = "^capital nonpositive just after event at t=5$"
        for t in (5.0, 9.0):
            with pytest.raises(DegenerateCapitalError, match=message):
                capital_at(s, t)

    @SIMPSON_AND_EXACT
    def test_capital_beyond_float_range_from_where_it_overflows(self, exact):
        # exp(8 * 88) fits in a float, exp(8 * 89) does not.
        path = self.flat(8.0, 100.0, exact)
        s = GrowthScenario(1.0, 100.0, path, (InvestmentEvent(95.0, -1.0),))
        assert capital_at(s, 88.0) == pytest.approx(math.exp(704.0), rel=1e-12)
        for t in (89.0, 95.0, 100.0):
            with pytest.raises(DegenerateCapitalError, match="^capital beyond float range at t="):
                capital_at(s, t)

    def test_tabulated_path_needs_no_pass(self, monkeypatch):
        events = (InvestmentEvent(5.2, 0.6), InvestmentEvent(12.1, -0.4))
        s = GrowthScenario(1.5, 20.0, TabulatedPath(KINKED), events)
        expected = [capital_at(s, t) for t in (3.0, 5.2, 12.1, 20.0)]

        def refused(*args):
            raise AssertionError("no pass expected")

        monkeypatch.setattr(growth_module, "_segments", refused)
        assert [capital_at(s, t) for t in (3.0, 5.2, 12.1, 20.0)] == expected


class TestScenarioValidation:
    def test_nonpositive_capital_rejected(self):
        with pytest.raises(ValueError):
            GrowthScenario(0.0, 10.0, ConstantPath(0.05))

    def test_nonpositive_rotation_rejected(self):
        with pytest.raises(ValueError):
            GrowthScenario(1.0, 0.0, ConstantPath(0.05))

    @pytest.mark.parametrize("k0, tau", [(math.nan, 10.0), (math.inf, 10.0), (1.0, math.nan),
                                         (1.0, math.inf)])
    def test_non_finite_capital_or_rotation_rejected(self, k0, tau):
        with pytest.raises(ValueError, match="finite"):
            GrowthScenario(k0, tau, ConstantPath(0.05))

    @pytest.mark.parametrize("time, amount", [(math.nan, 0.5), (5.0, math.nan), (5.0, math.inf)])
    def test_non_finite_event_rejected(self, time, amount):
        with pytest.raises(ValueError, match="finite"):
            InvestmentEvent(time, amount)

    def test_rotation_beyond_path_domain_rejected(self):
        with pytest.raises(DomainError):
            GrowthScenario(1.0, CYCLE + 1.0, SinSquaredPath(MEAN, SHAPE, CYCLE))

    @pytest.mark.parametrize(
        "build",
        [
            lambda tau: GrowthScenario(1.0, tau, SinSquaredPath(MEAN, SHAPE, CYCLE)),
            lambda tau: parse_scenario(json.dumps({"K0": 1.0, "tau": tau, "path": HUMP_JSON})),
        ],
        ids=["GrowthScenario", "parse_scenario"],
    )
    def test_one_slack_at_the_domain_end(self, build):
        build(CYCLE + HALF_SLACK)
        with pytest.raises(ValueError, match="100.0000002"):
            build(CYCLE + TWO_SLACKS)

    def test_event_outside_rotation_rejected(self):
        with pytest.raises(ValueError):
            GrowthScenario(
                1.0, 10.0, ConstantPath(0.05), (InvestmentEvent(10.0, 0.5),)
            )

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError):
            GrowthScenario(
                1.0,
                10.0,
                ConstantPath(0.05),
                (InvestmentEvent(5.0, 0.5), InvestmentEvent(5.0, 0.5)),
            )

    def test_with_rotation_drops_late_events(self):
        s = GrowthScenario(
            1.0, 10.0, ConstantPath(0.05), (InvestmentEvent(5.0, 0.5),)
        )
        assert with_rotation(s, 4.0).investments == ()
        assert with_rotation(s, 6.0).investments == s.investments


class TestExpectedProfitRate:
    def test_constant_closed_form(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        assert expected_profit_rate(s) == pytest.approx(
            (math.exp(0.5) - 1.0) / 10.0, rel=1e-10
        )

    def test_zero_rate_no_profit(self):
        s = GrowthScenario(3.0, 10.0, ConstantPath(0.0))
        assert expected_profit_rate(s) == pytest.approx(0.0, abs=1e-14)

    def test_reversed_path_same_profit(self):
        tau = CYCLE / 2  # the hump is asymmetric over a half cycle
        fwd = hump_scenario(tau)
        rev = GrowthScenario(
            1.0, tau, ReversedPath(SinSquaredPath(MEAN, SHAPE, CYCLE), tau)
        )
        assert expected_profit_rate(rev) == pytest.approx(
            expected_profit_rate(fwd), rel=1e-10
        )

    def test_events_change_growth_but_are_not_profit(self):
        path = ConstantPath(0.05)
        events = (InvestmentEvent(3.0, 0.8), InvestmentEvent(7.0, -0.2))
        s = GrowthScenario(1.0, 10.0, path, events)
        # Accrual profit is the terminal capital net of what was put in.
        terminal = capital_by_stepping(path, 1.0, events, 10.0)
        injected = sum(e.amount for e in events)
        assert expected_profit_rate(s) == pytest.approx(
            (terminal - 1.0 - injected) / 10.0, rel=1e-9
        )


class TestExpectedCapitalization:
    def test_constant_closed_form(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        assert expected_capitalization(s) == pytest.approx(
            (math.exp(0.5) - 1.0) / 0.5, rel=1e-10
        )

    def test_zero_rate_keeps_initial_capital(self):
        s = GrowthScenario(1.0, 10.0, ConstantPath(0.0))
        assert expected_capitalization(s) == pytest.approx(1.0, rel=1e-12)

    def test_front_loaded_path_holds_more_capital(self):
        falling = TabulatedPath(((0.0, 0.09), (10.0, 0.01)))
        rising = TabulatedPath(((0.0, 0.01), (10.0, 0.09)))
        front = GrowthScenario(1.0, 10.0, falling)
        back = GrowthScenario(1.0, 10.0, rising)
        assert expected_capitalization(front) > expected_capitalization(back)

    def test_reversal_changes_capitalization(self):
        tau = CYCLE / 2
        fwd = hump_scenario(tau)
        rev = GrowthScenario(
            1.0, tau, ReversedPath(SinSquaredPath(MEAN, SHAPE, CYCLE), tau)
        )
        fwd_cap = expected_capitalization(fwd)
        rev_cap = expected_capitalization(rev)
        assert abs(fwd_cap - rev_cap) > 1e-7 * fwd_cap  # well above tolerance

    def test_against_midpoint_oracle(self):
        s = hump_scenario(80.0)
        path = s.path

        def capital(ts):
            exps = [midpoint_integral(path.evaluate, 0.0, t, n=4000) for t in ts]
            return np.exp(exps)

        oracle = midpoint_integral(capital, 0.0, 80.0, n=2000) / 80.0
        assert expected_capitalization(s) == pytest.approx(oracle, rel=1e-6)

    def test_capital_that_underflows_to_zero_is_degenerate(self):
        # The smallest denormal shrinks to zero within one year.
        s = GrowthScenario(5e-324, 50.0, ConstantPath(-1.0))
        with pytest.raises(DegenerateCapitalError, match="expected capitalization is nonpositive"):
            expected_values(s)


class TestRroc:
    @pytest.mark.parametrize("rate", [-0.02, 0.01, 0.05, 0.2])
    @pytest.mark.parametrize("tau", [1.0, 10.0, 100.0])
    def test_constant_path_collapses_to_the_rate(self, rate, tau):
        s = GrowthScenario(2.0, tau, ConstantPath(rate))
        assert rroc(s) == pytest.approx(rate, abs=1e-9)

    def test_full_cycle_below_mean_rate(self):
        assert rroc(hump_scenario()) < MEAN

    def test_path_reversal_changes_rroc(self):
        tau = CYCLE / 2
        fwd = hump_scenario(tau)
        rev = GrowthScenario(
            1.0, tau, ReversedPath(SinSquaredPath(MEAN, SHAPE, CYCLE), tau)
        )
        assert abs(rroc(fwd) - rroc(rev)) > 1e-4

    def test_ratio_is_definitional(self):
        values = expected_values(hump_scenario(60.0))
        assert values.rroc == values.profit_rate / values.capitalization

    # exp(8 * 100) overflows; at tau = 88.6 the capital stays finite but
    # its integrals do not. Either way rroc would be nan.
    @pytest.mark.parametrize("tau", [88.6, 100.0])
    def test_capital_beyond_float_range_is_degenerate(self, tau):
        with pytest.raises(DegenerateCapitalError, match="float range"):
            rroc(GrowthScenario(1.0, tau, ConstantPath(8.0)))

    # Unchecked, a NaN or infinite resolution gives 2 intervals per piece of
    # a cut grid, a wrong value with no error (0.0647434155 and 0.0501614350
    # against 0.0676915535 and 0.0500786026 at 4096), and a raw ValueError
    # on a one-piece grid; a huge one sizes whatever node array it asks for.
    @pytest.mark.parametrize("intervals", [math.nan, math.inf, 2**20 + 2])
    @pytest.mark.parametrize(
        "scenario",
        [
            GrowthScenario(1.0, 60.0, SinSquaredPath(0.05, 0.3, 80.0),
                           (InvestmentEvent(20.0, 0.5),)),
            GrowthScenario(1.0, 40.0, TabulatedPath(((0, 0.01), (10, 0.09), (25, 0.03),
                                                     (40, 0.06)))),
            GrowthScenario(1.0, 60.0, SinSquaredPath(0.05, 0.3, 80.0)),
        ],
        ids=["hump-event", "tabulated", "hump"],
    )
    def test_resolution_out_of_range_is_a_domain_error(self, scenario, intervals):
        with pytest.raises(DomainError, match="quadrature intervals must be at most 1048576"):
            rroc(scenario, intervals=intervals)


@settings(max_examples=25, deadline=None)
@given(
    k0=st.floats(0.5, 5.0),
    tau=st.floats(2.0, 60.0),
    rates=st.lists(st.floats(-0.03, 0.12), min_size=2, max_size=5),
)
def test_profit_rate_is_path_independent(k0, tau, rates):
    times = np.linspace(0.0, tau, len(rates))
    path = TabulatedPath(tuple(zip(times, rates)))
    fwd = GrowthScenario(k0, tau, path)
    rev = GrowthScenario(k0, tau, ReversedPath(path, tau))
    a = expected_profit_rate(fwd)
    b = expected_profit_rate(rev)
    assert a == pytest.approx(b, abs=1e-8 * max(1.0, abs(a) / 1e-2))


@settings(max_examples=20, deadline=None)
@given(
    k0=st.floats(0.5, 5.0),
    tau=st.floats(2.0, 90.0),
    mean=st.floats(0.0, 0.12),
    shape=st.floats(0.0, 1.0),
)
def test_profit_rate_closed_form_consistency(k0, tau, mean, shape):
    path = SinSquaredPath(mean, shape, CYCLE)
    s = GrowthScenario(k0, tau, path)
    span = midpoint_integral(path.evaluate, 0.0, tau, n=100_000)
    closed = k0 * (math.exp(span) - 1.0) / tau
    assert expected_profit_rate(s) == pytest.approx(closed, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("x", [710.0, 1e308, math.inf])
def test_growth_factor_beyond_float_range_is_a_typed_error(x):
    # math.exp raises OverflowError on a finite overflow, but returns an
    # infinite argument's infinity as it is.
    with pytest.raises(DegenerateCapitalError, match="beyond float range"):
        growth_module._exp(x)
