"""Facility-level aggregation over production sites at different ages.

An estate runs many sites through the same rotation, staggered in age.
With a stationary age density the facility's expected capitalization is
the age-weighted average of the single-site capital trajectory, and its
return on capital weights each site's spot rate by the capital it
carries — which generally differs from the plain area-average of spot
rates across the estate.

An age density is a knot table on the rotation, linear between knots
and zero outside them: uniform ages are ``(0, 1/tau), (tau, 1/tau)``.
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
    """Probability density of site ages over the rotation: the knot table
    of ``_table``, linear between its knots and zero outside them."""

    def _table(self, rotation_length: float):
        """``(ages, weights)``: the strictly increasing knot ages and the
        normalized density at each, for a rotation of this length."""
        raise NotImplementedError

    def support(self, rotation_length: float) -> tuple[float, float]:
        """The first and the last knot age."""
        ages, _ = self._table(rotation_length)
        return (float(ages[0]), float(ages[-1]))

    def density(self, ages: np.ndarray, rotation_length: float) -> np.ndarray:
        return np.interp(ages, *self._table(rotation_length), left=0.0, right=0.0)


@dataclass(frozen=True)
class UniformAgeDensity(AgeDensity):
    """Every age in the rotation equally likely: the table (0, 1/tau), (tau, 1/tau)."""

    def _table(self, rotation_length: float):
        return (0.0, rotation_length), (1.0 / rotation_length,) * 2


@dataclass(frozen=True, eq=False)
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
        # Not fields, so equality and the hash stay those of the knots.
        object.__setattr__(self, "renormalization_factor", 1.0 / mass)
        object.__setattr__(self, "_weights", weights * self.renormalization_factor)

    def _table(self, rotation_length: float):
        return self._knot_arrays[0], self._weights


@dataclass(frozen=True)
class EstateSpec:
    """A shared per-site rotation plus the facility's age density."""

    site_scenario: GrowthScenario
    ages: AgeDensity

    def __post_init__(self):
        tau = self.site_scenario.rotation_length
        _require_within("age density support", self.ages.support(tau), "rotation", (0.0, tau))


@remember_latest
def _weighted_integrals(
    estate: EstateSpec, intervals: int
) -> tuple[float, float, float]:
    """Age-density-weighted integrals of capital, capital*rate, and rate,
    from one ``_segments`` pass. The latest estate's integrals are
    remembered, so the three public functions share one pass."""
    scenario = estate.site_scenario
    tau = scenario.rotation_length
    ages, _ = estate.ages._table(tau)  # the pass cuts at every knot
    ts, steps, rates, capital = _segments(scenario, ages, intervals)
    weights = estate.ages.density(ts, tau)
    # The density is zero outside its support; panels there get no weight
    # even where the density jumps at a support end.
    inside = (ts[:-2:2] >= ages[0]) & (ts[2::2] <= ages[-1])
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
