"""Facility-level aggregation over production sites at different ages.

An estate runs many sites through the same rotation, staggered in age.
With a stationary age density the facility's expected capitalization is
the age-weighted average of the single-site capital trajectory, and its
return on capital weights each site's spot rate by the capital it
carries — which generally differs from the plain area-average of spot
rates across the estate.

:func:`estate_rroc`, :func:`area_average_rate` and
:func:`estate_capitalization` read three integrals of one pass over the
rotation. The latest estate's pass is remembered, so the three called
on one estate make one pass between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCapitalError
from .growth import GrowthScenario, _segments
from .memo import remember_latest
from .paths import _KnotTable, _require_within
from .quadrature import DEFAULT_INTERVALS, _definite_integral


class AgeDensity:
    """Probability density of site ages over the rotation."""

    def support(self, rotation_length: float) -> tuple[float, float]:
        raise NotImplementedError

    def knot_times(self, rotation_length: float) -> tuple[float, ...]:
        """Ages where the density has kinks; integration splits here."""
        raise NotImplementedError

    def density(self, ages: np.ndarray, rotation_length: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformAgeDensity(AgeDensity):
    """Every age in the rotation equally likely."""

    def support(self, rotation_length: float) -> tuple[float, float]:
        return (0.0, rotation_length)

    def knot_times(self, rotation_length: float) -> tuple[float, ...]:
        return ()

    def density(self, ages: np.ndarray, rotation_length: float) -> np.ndarray:
        return np.full_like(ages, 1.0 / rotation_length, dtype=float)


@dataclass(frozen=True)
class TabulatedAgeDensity(_KnotTable, AgeDensity):
    """Piecewise-linear age density through ``(age, weight)`` knots.

    The knot rules are those of ``paths._KnotTable``, the base it shares
    with ``TabulatedPath``: at least two knots, strictly increasing ages.
    Weights must be nonnegative with a positive total mass; the density
    is zero outside the knot range. Inputs are rescaled so the density
    integrates to one exactly; ``renormalization_factor`` reports the
    applied scale.
    """

    _what, _first = "density", "ages"
    __hash__ = _KnotTable.__hash__

    def __post_init__(self):
        super().__post_init__()
        ages, weights = self._knot_arrays
        if np.any(weights < 0.0):
            raise ValueError("density weights must be nonnegative")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite mass is rejected
            mass = float(np.trapezoid(weights, ages))
        if not math.isfinite(mass):
            raise ValueError("density total mass must be finite")
        if mass <= 0.0:
            raise ValueError("density must have positive total mass")
        # Not a field, so equality and the hash stay those of the knots.
        object.__setattr__(self, "renormalization_factor", 1.0 / mass)

    def support(self, rotation_length: float) -> tuple[float, float]:
        return (self.knots[0][0], self.knots[-1][0])

    def knot_times(self, rotation_length: float) -> tuple[float, ...]:
        return tuple(a for a, _ in self.knots)

    def density(self, ages: np.ndarray, rotation_length: float) -> np.ndarray:
        knot_ages, weights = self._knot_arrays
        scaled = weights * self.renormalization_factor
        return np.interp(ages, knot_ages, scaled, left=0.0, right=0.0)


@dataclass(frozen=True)
class EstateSpec:
    """A shared per-site rotation plus the facility's age density."""

    site_scenario: GrowthScenario
    ages: AgeDensity

    def __post_init__(self):
        tau = self.site_scenario.rotation_length
        support = self.ages.support(tau)
        _require_within("age density support", support, "rotation", (0.0, tau))


@remember_latest
def _weighted_integrals(
    estate: EstateSpec, intervals: int
) -> tuple[float, float, float]:
    """Age-density-weighted integrals of capital, capital*rate, and rate,
    from one ``_segments`` pass. The latest estate's integrals are
    remembered, so the three public functions share one pass."""
    scenario = estate.site_scenario
    tau = scenario.rotation_length
    lo, hi = estate.ages.support(tau)
    cuts = sorted({lo, hi, *estate.ages.knot_times(tau)})  # each cut once
    ts, steps, rates, capital = _segments(scenario, cuts, intervals)
    weights = estate.ages.density(ts, tau)
    # The density is zero outside its support; panels there get no weight
    # even where the density jumps at a support end.
    inside = (ts[:-2:2] >= lo) & (ts[2::2] <= hi)
    if not inside.all():
        steps = steps * inside
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        integrals = (
            _definite_integral(capital * weights, steps),
            _definite_integral(capital * rates * weights, steps),
            _definite_integral(rates * weights, steps),
        )
    if not all(map(math.isfinite, integrals)):
        raise DegenerateCapitalError("age-weighted capital is beyond float range")
    return integrals


def estate_capitalization(
    estate: EstateSpec, *, intervals: int = DEFAULT_INTERVALS
) -> float:
    """Expected capitalization across the facility (currency): the
    single-site capital trajectory averaged over the age density."""
    capital_mass, _, _ = _weighted_integrals(estate, intervals)
    return capital_mass


def estate_rroc(estate: EstateSpec, *, intervals: int = DEFAULT_INTERVALS) -> float:
    """Facility return rate on capital, per year: each age's spot rate
    weighted by the capital standing at that age.

    Raises:
        DegenerateCapitalError: the age-weighted capitalization is
            nonpositive.
    """
    capital_mass, profit_mass, _ = _weighted_integrals(estate, intervals)
    if capital_mass <= 0.0:
        raise DegenerateCapitalError("estate capitalization is nonpositive")
    return profit_mass / capital_mass


def area_average_rate(
    estate: EstateSpec, *, intervals: int = DEFAULT_INTERVALS
) -> float:
    """Unweighted average of spot rates over the age density, per year.

    Under a uniform age density this equals the time-average spot rate
    over the rotation — the growth-cycle IRR — which is why that IRR
    misstates the facility's capital return whenever capital varies
    with age.
    """
    _, _, rate_mass = _weighted_integrals(estate, intervals)
    return rate_mass
