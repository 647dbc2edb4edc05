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
from functools import cached_property

import numpy as np

from .errors import DegenerateCapitalError
from .growth import GrowthScenario, _segments
from .memo import remember_latest
from .paths import _require_within
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
class TabulatedAgeDensity(AgeDensity):
    """Piecewise-linear age density through ``(age, weight)`` knots.

    Weights must be nonnegative with strictly increasing ages and a
    positive total mass; the density is zero outside the knot range.
    Inputs are rescaled so the density integrates to one exactly;
    ``renormalization_factor`` reports the applied scale.
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError("tabulated density needs at least two knots")
        ages = [a for a, _ in self.knots]
        if any(b <= a for a, b in zip(ages, ages[1:])):
            raise ValueError("knot ages must be strictly increasing")
        if any(w < 0.0 for _, w in self.knots):
            raise ValueError("density weights must be nonnegative")
        mass = self._raw_mass()
        if not math.isfinite(mass):
            raise ValueError("density total mass must be finite")
        if mass <= 0.0:
            raise ValueError("density must have positive total mass")

    def _raw_mass(self) -> float:
        ages = np.array([a for a, _ in self.knots])
        weights = np.array([w for _, w in self.knots])
        with np.errstate(over="ignore"):  # an overflowing mass is rejected as such
            return float(np.trapezoid(weights, ages))

    @cached_property
    def renormalization_factor(self) -> float:
        """Scale applied to the raw weights so the density integrates to 1."""
        return 1.0 / self._raw_mass()

    @cached_property
    def _density_knots(self) -> tuple[np.ndarray, np.ndarray]:
        ages = np.array([a for a, _ in self.knots])
        return ages, np.array([w for _, w in self.knots]) * self.renormalization_factor

    @cached_property
    def _hash(self) -> int:
        return hash((self.knots,))

    def __hash__(self):
        """The dataclass hash, computed once: it keys the memo of the
        estate pass, and the knots cannot change."""
        return self._hash

    def support(self, rotation_length: float) -> tuple[float, float]:
        return (self.knots[0][0], self.knots[-1][0])

    def knot_times(self, rotation_length: float) -> tuple[float, ...]:
        return tuple(a for a, _ in self.knots)

    def density(self, ages: np.ndarray, rotation_length: float) -> np.ndarray:
        return np.interp(ages, *self._density_knots, left=0.0, right=0.0)


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
    cuts = (lo, hi, *estate.ages.knot_times(tau))
    ts, steps, rates, capital = _segments(scenario, cuts, intervals)
    weights = estate.ages.density(ts, tau)
    # The density is zero outside its support; panels there get no weight
    # even where the density jumps at a support end.
    inside = (ts[:-2:2] >= lo) & (ts[2::2] <= hi)
    if not inside.all():
        steps = steps * inside
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
