"""Facility-level aggregation over an age distribution of sites."""

import json
import math

import pytest

from capreturn import (
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
    parse_scenario,
    rroc,
)
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

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedAgeDensity(((0.0, 1.0),))
        with pytest.raises(ValueError):
            TabulatedAgeDensity(((0.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError):
            TabulatedAgeDensity(((0.0, -1.0), (1.0, 2.0)))
        with pytest.raises(ValueError):
            TabulatedAgeDensity(((0.0, 0.0), (1.0, 0.0)))

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
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_capital_beyond_float_range_is_degenerate(tau):
    estate = EstateSpec(GrowthScenario(1.0, tau, ConstantPath(8.0)), UniformAgeDensity())
    with pytest.raises(DegenerateCapitalError, match="float range"):
        estate_rroc(estate)
