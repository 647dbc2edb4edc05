"""Spot-rate path evaluation, integration, and averaging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capreturn import (
    ConstantPath,
    DegenerateCapitalError,
    DomainError,
    ReversedPath,
    SinSquaredPath,
    TabulatedAgeDensity,
    TabulatedPath,
)
from capreturn.quadrature import _definite_integral, _grid
from oracles import linear_rate_integral, midpoint_integral

MEAN, SHAPE, CYCLE = 0.05, 0.5, 100.0
# Kinks off every uniform grid over [0, 20].
KINKED = ((0.0, 0.08), (3.3, 0.01), (7.77, 0.06), (12.1, -0.02), (16.45, 0.05), (20.0, 0.03))
# Half of the domain slack past the end of a 100-year domain, and two slacks.
HALF_SLACK, TWO_SLACKS = 5e-8, 2e-7


@pytest.fixture
def hump():
    return SinSquaredPath(mean_rate=MEAN, shape=SHAPE, full_cycle=CYCLE)


class TestEvaluate:
    def test_hump_floor_at_cycle_start(self, hump):
        assert hump.evaluate(0.0) == pytest.approx(SHAPE * MEAN, abs=1e-15)

    def test_hump_peak_at_midcycle(self, hump):
        assert hump.evaluate(CYCLE / 2) == pytest.approx(MEAN * (2 - SHAPE), abs=1e-12)

    def test_constant(self):
        assert ConstantPath(0.04).evaluate(7.0) == 0.04

    def test_tabulated_interpolates(self):
        path = TabulatedPath(((0.0, 0.02), (10.0, 0.04)))
        assert path.evaluate(5.0) == pytest.approx(0.03)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tabulated_slope_beyond_float_range(self):
        # The slope, -2e308 per year, is beyond float range; the rates are not.
        path = TabulatedPath(((0.0, 1e308), (1.0, -1e308)))
        out = path.evaluate([0.0, 0.25, 0.5, 1.0])
        assert out == pytest.approx([1e308, 5e307, 0.0, -1e308], rel=1e-15, abs=1e292)

    def test_reversed_flips_time(self, hump):
        rev = ReversedPath(hump, 40.0)
        assert rev.evaluate(10.0) == pytest.approx(hump.evaluate(30.0))

    def test_outside_domain_rejected(self, hump):
        with pytest.raises(DomainError):
            hump.evaluate(-1.0)
        with pytest.raises(DomainError):
            hump.evaluate(CYCLE + 1.0)

    def test_tabulated_no_extrapolation(self):
        path = TabulatedPath(((1.0, 0.02), (2.0, 0.04)))
        with pytest.raises(DomainError):
            path.evaluate(0.5)

    def test_one_slack_at_the_domain_end(self, hump):
        assert hump.evaluate(CYCLE + HALF_SLACK) == pytest.approx(SHAPE * MEAN)
        with pytest.raises(DomainError, match="100.0000002"):
            hump.evaluate(CYCLE + TWO_SLACKS)

    def test_vectorized_evaluation(self, hump):
        ts = np.array([0.0, 25.0, 50.0])
        out = hump.evaluate(ts)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(MEAN * (2 - SHAPE))


class TestConstruction:
    def test_nonpositive_cycle_rejected(self):
        with pytest.raises(ValueError):
            SinSquaredPath(mean_rate=0.05, shape=0.5, full_cycle=0.0)

    # The knot rules and their messages are shared by both knot tables.
    @pytest.mark.parametrize(
        "cls, message",
        [(TabulatedPath, "knot times must be strictly increasing"),
         (TabulatedAgeDensity, "knot ages must be strictly increasing")],
    )
    def test_unsorted_knots_rejected(self, cls, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(((0.0, 0.02), (0.0, 0.04)))

    @pytest.mark.parametrize(
        "cls, message",
        [(TabulatedPath, "tabulated path needs at least two knots"),
         (TabulatedAgeDensity, "tabulated density needs at least two knots")],
    )
    def test_single_knot_rejected(self, cls, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(((0.0, 0.02),))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ConstantPath(math.nan),
            lambda: ConstantPath(math.inf),
            lambda: SinSquaredPath(math.nan, 0.5, 100.0),
            lambda: SinSquaredPath(0.05, math.inf, 100.0),
            lambda: SinSquaredPath(0.05, 0.5, math.nan),
            lambda: TabulatedPath(((0.0, math.nan), (10.0, 0.1))),
            lambda: TabulatedPath(((0.0, 0.01), (math.inf, 0.1))),
            lambda: ReversedPath(ConstantPath(0.05), math.nan),
        ],
    )
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


class TestCumulativeReturn:
    def test_constant_closed_form(self):
        assert ConstantPath(0.05).cumulative_return(10.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_zero_horizon(self, hump):
        assert hump.cumulative_return(0.0) == 0.0

    def test_runs_forward_only(self):
        # The constant path's domain admits t = -1; the integral does not.
        with pytest.raises(DomainError, match="runs forward from time 0"):
            ConstantPath(0.05).cumulative_return(-1.0)

    @pytest.mark.filterwarnings("error")
    def test_infinite_horizon_is_a_domain_error(self):
        # The constant path's domain admits t = inf; a grid over it does not.
        with pytest.raises(DomainError, match="to a finite time"):
            ConstantPath(0.05).cumulative_return(math.inf)

    def test_full_cycle_forced_by_normalization(self, hump):
        assert hump.cumulative_return(CYCLE) == pytest.approx(
            MEAN * CYCLE, abs=1e-8
        )

    def test_against_midpoint_oracle(self, hump):
        for t in (13.7, 50.0, 88.2):
            oracle = midpoint_integral(hump.evaluate, 0.0, t)
            assert hump.cumulative_return(t) == pytest.approx(oracle, abs=1e-10)

    def test_tabulated_against_midpoint_oracle(self):
        path = TabulatedPath(((0.0, 0.08), (4.0, 0.01), (9.0, 0.06), (20.0, 0.02)))
        oracle = midpoint_integral(path.evaluate, 0.0, 17.0)
        assert path.cumulative_return(17.0) == pytest.approx(oracle, abs=1e-6)

    def test_tabulated_exact_across_knots_off_the_grid(self):
        path = TabulatedPath(KINKED)
        rev = ReversedPath(path, 20.0)
        for t in (5.0, 13.37, 20.0):
            exact = linear_rate_integral(KINKED, 0.0, t)
            assert path.cumulative_return(t) == pytest.approx(exact, rel=1e-12)
            exact = linear_rate_integral(KINKED, 20.0 - t, 20.0)
            assert rev.cumulative_return(t) == pytest.approx(exact, rel=1e-12)

    def test_one_slack_at_the_domain_end(self, hump):
        # The slack admits the time but does not lengthen the integral.
        assert hump.cumulative_return(CYCLE + HALF_SLACK) == hump.cumulative_return(CYCLE)
        with pytest.raises(DomainError, match="100.0000002"):
            hump.cumulative_return(CYCLE + TWO_SLACKS)

    def test_negative_rates_allowed(self):
        path = TabulatedPath(((0.0, -0.05), (10.0, 0.05)))
        assert path.cumulative_return(10.0) == pytest.approx(0.0, abs=1e-12)

    def test_doubling_resolution_is_converged(self, hump):
        coarse = hump.cumulative_return(73.0, intervals=4096)
        fine = hump.cumulative_return(73.0, intervals=8192)
        assert abs(coarse - fine) < 1e-8 * max(1.0, abs(fine))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "call",
        [lambda: ConstantPath(1e308).time_average_rate(10.0)],
        ids=["constant-average"],
    )
    def test_sum_beyond_float_range_is_degenerate(self, call):
        # The integral, 1e309, overflows; no inf is returned and no numpy
        # warning reaches the caller.
        with pytest.raises(DegenerateCapitalError, match="is beyond float range$"):
            call()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "call, exact",
        [
            (lambda: ConstantPath(1e308).time_average_rate(0.5), 1e308),
            (lambda: TabulatedPath(((0.0, 1e308), (1.0, -1e308))).cumulative_return(1.0), 0.0),
            (
                lambda: TabulatedPath(
                    ((0.0, 1e308), (0.5, 1e308), (1.0, -1e308))
                ).cumulative_return(1.0),
                5e307,
            ),
            (
                lambda: TabulatedPath(
                    ((-1.0, 1e308), (0.0, 1e308), (1.0, 1e308), (2.0, -1e308))
                ).cumulative_return(1.0),
                1e308,
            ),
        ],
        ids=["constant-average", "tabulated-integral", "tabulated-pieces",
             "tabulated-running-sum"],
    )
    def test_integral_within_float_range_is_finite(self, call, exact):
        # Every rate fits in a float and so does the integral, but the
        # Simpson sum of the rates overflows on the way (one piece, then
        # two pieces cut at a kink), or the exact antiderivative's running
        # sum from the first knot does (2e308 at t = 1), which then takes
        # the Simpson route.
        assert call() == pytest.approx(exact, rel=1e-12, abs=1e-12 * 1e308)


def long_table(n=1000, seed=7):
    """A seeded table of ``n`` knots from t = -0.05, with uneven steps and
    positive rates."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(np.append(-0.05, rng.uniform(0.01, 0.2, n - 1)))
    return TabulatedPath(tuple(zip(times.tolist(), rng.uniform(0.01, 0.1, n).tolist())))


class TestAntiderivative:
    """A tabulated path's exact integral, which its cumulative return and
    ``growth.capital_at`` read instead of a Simpson pass."""

    @pytest.mark.parametrize("path", [TabulatedPath(KINKED), long_table()], ids=["kinked", "long"])
    def test_central_difference_is_the_rate_off_the_knots(self, path):
        times = path._knot_arrays[0]
        ts = (times[:-1] + times[1:]) / 2.0
        h = np.diff(times).min() / 8.0
        difference = (path._antiderivative(ts + h) - path._antiderivative(ts - h)) / (2.0 * h)
        assert difference == pytest.approx(path._rates(ts), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "path, t", [(TabulatedPath(KINKED), 13.37), (TabulatedPath(KINKED), 20.0),
                    (long_table(), 55.5)], ids=["kinked", "kinked-end", "long"])
    def test_matches_a_fine_simpson_sum(self, path, t):
        ts, steps = _grid(0.0, t, path._kinks(), 2**16)
        fine = _definite_integral(path._clipped_rates(ts), steps)
        start, end = path._antiderivative(np.array([0.0, t]))
        assert end - start == pytest.approx(fine, rel=1e-13)
        assert path.cumulative_return(t) == end - start

    def test_running_sum_of_a_long_table(self):
        path = long_table()
        times, rates = path._knot_arrays
        pieces = [(b - a) * (x + y) / 2.0
                  for a, b, x, y in zip(times, times[1:], rates, rates[1:])]
        reference = np.array([math.fsum(pieces[:k]) for k in range(len(times))])
        assert path._antiderivative(times) == pytest.approx(reference, rel=1e-14, abs=0.0)

    def test_reversal_takes_the_simpson_route(self, monkeypatch):
        rev = ReversedPath(TabulatedPath(KINKED), 20.0)

        def refused(self, ts):
            raise AssertionError("a reversal has no exact antiderivative")

        monkeypatch.setattr(TabulatedPath, "_antiderivative", refused)
        for t in (5.0, 13.37, 20.0):
            exact = linear_rate_integral(KINKED, 20.0 - t, 20.0)
            assert rev.cumulative_return(t) == pytest.approx(exact, rel=1e-13)


class TestTimeAverage:
    def test_constant(self):
        assert ConstantPath(0.05).time_average_rate(10.0) == pytest.approx(0.05)

    def test_full_cycle_average_is_mean_rate(self, hump):
        assert abs(hump.time_average_rate(CYCLE) - MEAN) < 1e-6

    def test_reversal_preserves_full_average(self, hump):
        rev = ReversedPath(hump, CYCLE)
        assert rev.time_average_rate(CYCLE) == pytest.approx(
            hump.time_average_rate(CYCLE), abs=1e-10
        )

    def test_nonpositive_horizon_rejected(self, hump):
        with pytest.raises(ValueError):
            hump.time_average_rate(0.0)
        with pytest.raises(ValueError):
            hump.time_average_rate(-3.0)

    @pytest.mark.filterwarnings("error")
    def test_zero_horizon_is_a_domain_error(self):
        with pytest.raises(DomainError, match="averaging horizon must be > 0"):
            ConstantPath(0.05).time_average_rate(0.0)

    @pytest.mark.filterwarnings("error")
    def test_infinite_horizon_is_a_domain_error(self):
        with pytest.raises(DomainError, match="to a finite time"):
            ConstantPath(0.05).time_average_rate(math.inf)


@settings(max_examples=40, deadline=None)
@given(
    mean=st.floats(-0.1, 0.2),
    shape=st.floats(-1.0, 2.0),
    cycle=st.floats(0.5, 300.0),
)
def test_full_cycle_normalization_holds_for_any_shape(mean, shape, cycle):
    path = SinSquaredPath(mean_rate=mean, shape=shape, full_cycle=cycle)
    assert abs(path.time_average_rate(cycle) - mean) < 1e-6


@settings(max_examples=40, deadline=None)
@given(
    shape=st.floats(0.0, 1.0),
    t=st.floats(0.0, CYCLE),
)
def test_hump_is_symmetric_about_midcycle(shape, t):
    path = SinSquaredPath(mean_rate=MEAN, shape=shape, full_cycle=CYCLE)
    assert path.evaluate(t) == pytest.approx(path.evaluate(CYCLE - t), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    horizon=st.floats(1.0, CYCLE),
    rates=st.lists(st.floats(-0.05, 0.15), min_size=2, max_size=6),
)
def test_reversal_preserves_span_integral(horizon, rates):
    times = np.linspace(0.0, horizon, len(rates))
    path = TabulatedPath(tuple(zip(times, rates)))
    rev = ReversedPath(path, horizon)
    assert rev.cumulative_return(horizon) == pytest.approx(
        path.cumulative_return(horizon), abs=1e-9
    )
