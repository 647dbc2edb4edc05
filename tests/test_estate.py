"""Facility-level aggregation over an age distribution of sites."""

import dataclasses
import json
import math
import sys
import threading

import numpy as np
import pytest

from capreturn import (
    AgeDensity,
    ConstantPath,
    DegenerateCapitalError,
    EstateSpec,
    GrowthScenario,
    InvestmentEvent,
    ReversedPath,
    SinSquaredPath,
    TabulatedAgeDensity,
    TabulatedPath,
    UniformAgeDensity,
    area_average_rate,
    estate_capitalization,
    estate_rroc,
    expected_capitalization,
    growth_cycle_irr,
    ReturnPath,
    parse_scenario,
    rroc,
)
from capreturn import estate as estate_module
from capreturn.quadrature import DEFAULT_INTERVALS
from oracles import linear_rate_integral, midpoint_integral

MEAN, SHAPE, CYCLE = 0.05, 0.5, 100.0
# Kinks off every uniform grid over [0, 20].
KINKED = ((0.0, 0.08), (3.3, 0.01), (7.77, 0.06), (12.1, -0.02), (16.45, 0.05), (20.0, 0.03))


def hump_estate(ages=None):
    scenario = GrowthScenario(1.0, CYCLE, SinSquaredPath(MEAN, SHAPE, CYCLE))
    return EstateSpec(scenario, ages if ages is not None else UniformAgeDensity())


def estate_document(knots):
    return json.dumps({
        "K0": 1.0,
        "tau": CYCLE,
        "path": {"kind": "constant", "rate": MEAN},
        "estate": {"ages": {"kind": "tabulated", "knots": knots}},
    })


class TestUniformAges:
    def test_capitalization_reduces_to_single_site_average(self):
        estate = hump_estate()
        assert estate_capitalization(estate) == pytest.approx(
            expected_capitalization(estate.site_scenario), rel=1e-10
        )

    def test_rroc_reduces_to_single_site_value(self):
        estate = hump_estate()
        assert estate_rroc(estate) == pytest.approx(
            rroc(estate.site_scenario), rel=1e-10
        )

    def test_constant_path_closed_form(self):
        scenario = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        estate = EstateSpec(scenario, UniformAgeDensity())
        assert estate_capitalization(estate) == pytest.approx(
            (math.exp(0.5) - 1.0) / 0.5, rel=1e-10
        )

    def test_area_average_is_the_cycle_irr(self):
        estate = hump_estate()
        assert area_average_rate(estate) == pytest.approx(
            growth_cycle_irr(estate.site_scenario), abs=1e-10
        )
        assert area_average_rate(estate) == pytest.approx(MEAN, abs=1e-6)

    def test_area_average_any_horizon_matches_time_average(self):
        scenario = GrowthScenario(1.0, 37.0, SinSquaredPath(MEAN, SHAPE, CYCLE))
        estate = EstateSpec(scenario, UniformAgeDensity())
        assert area_average_rate(estate) == pytest.approx(
            scenario.path.time_average_rate(37.0), abs=1e-10
        )

    @pytest.mark.parametrize("reverse", [False, True])
    def test_area_average_exact_on_tabulated_path_with_events(self, reverse):
        path = TabulatedPath(KINKED)
        if reverse:
            path = ReversedPath(path, 20.0)
        events = (InvestmentEvent(5.2, 0.6), InvestmentEvent(12.1, -0.4))
        estate = EstateSpec(GrowthScenario(1.5, 20.0, path, events), UniformAgeDensity())
        exact = linear_rate_integral(KINKED, 0.0, 20.0) / 20.0
        assert area_average_rate(estate) == pytest.approx(exact, rel=1e-12)

    def test_irr_is_not_representative_of_estate_return(self):
        estate = hump_estate()
        gap = abs(area_average_rate(estate) - estate_rroc(estate))
        assert gap > 1e-3


class TestConstantRate:
    def test_everything_collapses_to_the_rate(self):
        scenario = GrowthScenario(2.0, 10.0, ConstantPath(0.04))
        estate = EstateSpec(scenario, UniformAgeDensity())
        assert estate_rroc(estate) == pytest.approx(0.04, abs=1e-9)
        assert area_average_rate(estate) == pytest.approx(0.04, abs=1e-9)

    def test_zero_rate_keeps_initial_capital(self):
        scenario = GrowthScenario(1.0, 10.0, ConstantPath(0.0))
        spike = TabulatedAgeDensity(((4.0, 0.0), (5.0, 1.0), (6.0, 0.0)))
        for ages in (UniformAgeDensity(), spike):
            estate = EstateSpec(scenario, ages)
            assert estate_capitalization(estate) == pytest.approx(1.0, rel=1e-9)


class TestTabulatedAges:
    def test_renormalization_reported_and_applied(self):
        density = TabulatedAgeDensity(((0.0, 2.0), (10.0, 2.0)))
        assert density.renormalization_factor == pytest.approx(1.0 / 20.0)
        mass = midpoint_integral(
            lambda a: density.density(a, 10.0), 0.0, 10.0, n=100_000
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_spiky_mass_integrates_to_one(self):
        density = TabulatedAgeDensity(((40.0, 0.0), (50.0, 3.0), (55.0, 0.5), (70.0, 0.0)))
        mass = midpoint_integral(
            lambda a: density.density(a, CYCLE), 0.0, CYCLE, n=400_000
        )
        assert mass == pytest.approx(1.0, abs=1e-7)

    def test_young_estate_capitalizes_near_initial_capital(self):
        spike = TabulatedAgeDensity(((0.0, 1.0), (0.5, 0.0)))
        estate = hump_estate(spike)
        assert estate_capitalization(estate) == pytest.approx(1.0, rel=1e-2)

    def test_density_at_the_rate_peak_approaches_the_peak_rate(self):
        half_width = 0.5
        spike = TabulatedAgeDensity(
            ((CYCLE / 2 - half_width, 0.0), (CYCLE / 2, 1.0), (CYCLE / 2 + half_width, 0.0))
        )
        estate = hump_estate(spike)
        peak = MEAN * (2.0 - SHAPE)
        assert estate_rroc(estate) == pytest.approx(peak, abs=1e-4)
        assert area_average_rate(estate) == pytest.approx(peak, abs=1e-4)

    def test_weighted_integrals_match_midpoint_oracle(self):
        density = TabulatedAgeDensity(((10.0, 0.2), (40.0, 1.0), (90.0, 0.1)))
        estate = hump_estate(density)
        path = estate.site_scenario.path

        def weighted_rate(ages):
            return path.evaluate(ages) * density.density(ages, CYCLE)

        oracle = midpoint_integral(weighted_rate, 10.0, 90.0, n=200_000)
        assert area_average_rate(estate) == pytest.approx(oracle, rel=1e-8)

    def test_support_ends_are_cut_once(self, monkeypatch):
        # The density's knots include its support ends; a cut given twice
        # would add a zero-width panel there.
        steps = []
        original = estate_module._segments

        def recorded(*args):
            result = original(*args)
            steps.append(result[1])
            return result

        estate_module._weighted_integrals.cache_clear()
        monkeypatch.setattr(estate_module, "_segments", recorded)
        estate_rroc(hump_estate(TabulatedAgeDensity(((10.0, 0.2), (40.0, 1.0), (90.0, 0.1)))))
        assert np.all(steps[0] > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedAgeDensity(((0.0, 1.0),))
        with pytest.raises(ValueError):
            TabulatedAgeDensity(((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            TabulatedAgeDensity(((0.0, -1.0), (1.0, 2.0)))
        with pytest.raises(ValueError):
            TabulatedAgeDensity(((0.0, 0.0), (1.0, 0.0)))

    # Finite weights whose trapezoid mass overflows would renormalize the
    # density to zero everywhere; zero weight over an infinite age span is
    # a NaN mass.
    @pytest.mark.parametrize(
        "knots",
        [((0.0, 1e308), (10.0, 1e308)), ((0.0, 0.0), (math.inf, 0.0))],
        ids=["overflow", "nan"],
    )
    def test_non_finite_mass_rejected(self, knots):
        with pytest.raises(ValueError, match="^density total mass must be finite$"):
            TabulatedAgeDensity(knots)

    @pytest.mark.parametrize(
        "build",
        [
            lambda knots: EstateSpec(hump_estate().site_scenario, TabulatedAgeDensity(knots)),
            lambda knots: parse_scenario(estate_document(knots)),
        ],
        ids=["EstateSpec", "parse_scenario"],
    )
    def test_support_end_within_one_slack_of_the_rotation(self, build):
        # The slack at a 100-year rotation is 1e-7.
        build(((0.0, 1.0), (CYCLE + 5e-8, 1.0)))
        with pytest.raises(ValueError):
            build(((0.0, 1.0), (CYCLE + 2e-7, 1.0)))

    def test_support_must_fit_the_rotation(self):
        scenario = GrowthScenario(1.0, 10.0, ConstantPath(0.05))
        too_wide = TabulatedAgeDensity(((0.0, 1.0), (20.0, 1.0)))
        with pytest.raises(ValueError):
            EstateSpec(scenario, too_wide)


@pytest.mark.parametrize("tau", [88.6, 100.0])
def test_capital_beyond_float_range_is_degenerate(tau):
    estate = EstateSpec(GrowthScenario(1.0, tau, ConstantPath(8.0)), UniformAgeDensity())
    with pytest.raises(DegenerateCapitalError, match="float range"):
        estate_rroc(estate)


def three_values(estate):
    return (estate_rroc(estate), area_average_rate(estate), estate_capitalization(estate))


@pytest.fixture
def passes(monkeypatch):
    """Counts the rotation passes of the estate functions, with the
    remembered pass forgotten first."""
    calls = []
    original = estate_module._segments

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    estate_module._weighted_integrals.cache_clear()
    monkeypatch.setattr(estate_module, "_segments", counted)
    return calls


@dataclasses.dataclass
class MutablePath(ReturnPath):
    """A path of a non-frozen dataclass, which cannot be hashed."""

    rate: float

    def domain(self):
        return (-math.inf, math.inf)

    def _rates(self, ts):
        return np.full_like(ts, self.rate, dtype=float)


@dataclasses.dataclass
class MutableDensity(AgeDensity):
    """Uniform ages up to ``oldest``, as a non-frozen dataclass."""

    oldest: float

    def support(self, rotation_length):
        return (0.0, self.oldest)

    def knot_times(self, rotation_length):
        return ()

    def density(self, ages, rotation_length):
        return np.where(ages <= self.oldest, 1.0 / self.oldest, 0.0)


WEIGHTS = ((10.0, 0.2), (40.0, 1.0), (90.0, 0.1))


class TestRememberedPass:
    """The three estate functions on one estate share one pass."""

    def test_one_pass_for_the_three_functions(self, passes):
        estate = hump_estate(TabulatedAgeDensity(WEIGHTS))
        three_values(estate)
        assert len(passes) == 1
        # An equal estate, built afresh, is served the same pass.
        three_values(hump_estate(TabulatedAgeDensity(WEIGHTS)))
        assert len(passes) == 1

    def test_remembered_values_are_those_of_a_fresh_pass(self, passes):
        estate = hump_estate(TabulatedAgeDensity(WEIGHTS))
        capital, profit, rate = estate_module._weighted_integrals.__wrapped__(
            estate, DEFAULT_INTERVALS
        )
        for _ in range(2):
            assert three_values(estate) == (profit / capital, rate, capital)

    def test_an_estate_one_weight_apart_gets_its_own_pass(self, passes):
        first = three_values(hump_estate(TabulatedAgeDensity(WEIGHTS)))
        other = TabulatedAgeDensity((WEIGHTS[0], (40.0, 1.5), WEIGHTS[2]))
        second = three_values(hump_estate(other))
        assert len(passes) == 2
        assert second[0] != first[0]
        assert second == three_values(hump_estate(other))
        assert len(passes) == 2

    @pytest.mark.parametrize("part", ["path", "density"])
    def test_unhashable_parts_are_computed_afresh(self, passes, part):
        path = MutablePath(MEAN) if part == "path" else ConstantPath(MEAN)
        ages = MutableDensity(CYCLE) if part == "density" else UniformAgeDensity()
        estate = EstateSpec(GrowthScenario(1.0, CYCLE, path), ages)
        with pytest.raises(TypeError):
            hash(estate)
        assert three_values(estate) == pytest.approx((MEAN, MEAN, math.expm1(5.0) / 5.0))
        assert len(passes) == 3
        # A change in place is seen, since nothing was remembered.
        if part == "path":
            path.rate = 2.0 * MEAN
            assert estate_rroc(estate) == pytest.approx(2.0 * MEAN)
        else:
            ages.oldest = CYCLE / 2.0
            assert estate_capitalization(estate) == pytest.approx(math.expm1(2.5) / 2.5)
        assert len(passes) == 4

    def test_threads_alternating_estates_get_their_own_values(self):
        estates = [hump_estate(TabulatedAgeDensity(WEIGHTS)), hump_estate()]
        expected = [three_values(e) for e in estates]
        wrong = []

        def work(offset):
            for i in range(100):
                k = (i + offset) % 2
                if three_values(estates[k]) != expected[k]:
                    wrong.append(k)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("cls", [TabulatedPath, TabulatedAgeDensity])
    def test_knot_classes_hash_and_compare_as_dataclasses(self, cls):
        plain = dataclasses.make_dataclass("Plain", [("knots", tuple)], frozen=True)
        knots = ((0.0, 0.5), (50.0, 1.0), (CYCLE, 0.25))
        built = cls(knots)
        assert hash(built) == hash(plain(knots)) == hash(cls(tuple(map(tuple, knots))))
        assert hash(built) == hash((built.knots,))
        assert built == cls(knots)
        assert built != cls(knots[:2] + ((CYCLE, 0.3),))
        assert built != plain(knots)
        other = TabulatedAgeDensity if cls is TabulatedPath else TabulatedPath
        assert built != other(knots)
