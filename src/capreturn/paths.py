"""Spot return-rate paths over a growth cycle.

A path gives the instantaneous relative growth rate of capital, per
year, as a function of time. Four variants are provided:

* :class:`ConstantPath` — a flat rate, defined for all times;
* :class:`SinSquaredPath` — a smooth single-hump cycle shape, lowest at
  the cycle boundaries and peaking mid-cycle;
* :class:`TabulatedPath` — piecewise-linear interpolation between knots,
  with no extrapolation;
* :class:`ReversedPath` — another path played backwards from a horizon.

Paths are frozen dataclasses: immutable after construction, safe to
evaluate concurrently, and usable as dict keys. Negative rates are
allowed everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError
from .quadrature import DEFAULT_INTERVALS, _definite_integral, _grid

# Slack applied to domain checks so grid endpoints produced by float
# arithmetic (e.g. linspace hitting the upper bound) are not rejected.
_DOMAIN_SLACK = 1e-9


def _require_within(what: str, span, where: str, bounds) -> None:
    """Raise DomainError unless ``span`` lies inside the closed interval
    ``bounds``, give or take one slack: ``_DOMAIN_SLACK`` times the
    largest finite bound magnitude, at least 1. NaN lies nowhere. Every
    domain check of the package goes through here.
    """
    (a, b), (lo, hi) = span, bounds
    slack = _DOMAIN_SLACK * max([1.0, *(abs(x) for x in bounds if math.isfinite(x))])
    if not (lo - slack <= a and b <= hi + slack):
        raise DomainError(
            f"{what} [{a:.12g}, {b:.12g}] exceeds {where} [{lo:.12g}, {hi:.12g}]"
        )


class ReturnPath:
    """Base class for spot return-rate paths."""

    def domain(self) -> tuple[float, float]:
        """Closed interval of times where the path is defined."""
        raise NotImplementedError

    def _rates(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation without domain checks."""
        raise NotImplementedError

    def _kinks(self):
        """Times inside the domain where the rate has a kink; quadrature
        grids cut there."""
        return ()

    def _clipped_rates(self, ts: np.ndarray) -> np.ndarray:
        """Rates at ``ts`` moved into the domain, which absorbs the slack
        the domain checks allow."""
        lo, hi = self.domain()
        return self._rates(np.clip(ts, lo, hi))

    def evaluate(self, t):
        """Spot return rate at time ``t`` (scalar or ndarray), per year.

        Raises:
            DomainError: if any requested time lies outside the domain.
        """
        ts = np.asarray(t, dtype=float)
        if ts.size:
            _require_within("times", (np.min(ts), np.max(ts)), "path domain", self.domain())
        out = self._clipped_rates(ts)
        if ts.ndim == 0:
            return float(out)
        return out

    def cumulative_return(self, t: float, *, intervals: int = DEFAULT_INTERVALS) -> float:
        """Integral of the spot rate from time 0 to ``t`` (dimensionless).

        Computed by composite Simpson quadrature of about ``intervals``
        subintervals over ``[0, t]``, cut at the path's kinks.
        """
        _require_within("span", (0.0, t), "path domain", self.domain())
        if t < 0.0:
            raise DomainError("cumulative return runs forward from time 0")
        upper = min(t, self.domain()[1])  # the slack admits t, not a longer integral
        if upper <= 0.0:
            return 0.0
        ts, steps = _grid(0.0, upper, self._kinks(), intervals)
        return _definite_integral(self._clipped_rates(ts), steps)

    def time_average_rate(self, horizon: float, *, intervals: int = DEFAULT_INTERVALS) -> float:
        """Average spot rate over ``[0, horizon]``, per year.

        Raises:
            ValueError: if ``horizon`` is not strictly positive.
            DomainError: if ``horizon`` exceeds the path domain.
        """
        if horizon <= 0.0:
            raise ValueError("averaging horizon must be > 0")
        return self.cumulative_return(horizon, intervals=intervals) / horizon


@dataclass(frozen=True)
class ConstantPath(ReturnPath):
    """Flat spot rate, defined for every time."""

    rate: float

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise ValueError("rate must be finite")

    def domain(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    def _rates(self, ts: np.ndarray) -> np.ndarray:
        return np.full_like(ts, self.rate, dtype=float)


@dataclass(frozen=True)
class SinSquaredPath(ReturnPath):
    """Single-hump cycle shape with a pinned full-cycle average.

    The rate is ``mean_rate * (shape + 2*(1-shape)*sin^2(pi*t/full_cycle))``.
    The squared-sine term averages to 1/2 over a full cycle, so the factor
    of 2 makes the full-cycle time average equal ``mean_rate`` exactly for
    any ``shape``. ``shape`` = 1 collapses to a constant; ``shape`` = 0
    puts the whole cycle's return into the mid-cycle hump.

    Defined on ``[0, full_cycle]`` only.
    """

    mean_rate: float
    shape: float
    full_cycle: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mean_rate, self.shape, self.full_cycle))):
            raise ValueError("mean_rate, shape and full_cycle must be finite")
        if self.full_cycle <= 0.0:
            raise ValueError("full_cycle must be > 0")

    def domain(self) -> tuple[float, float]:
        return (0.0, self.full_cycle)

    def _rates(self, ts: np.ndarray) -> np.ndarray:
        hump = np.sin(np.pi * ts / self.full_cycle) ** 2
        return self.mean_rate * (self.shape + 2.0 * (1.0 - self.shape) * hump)


@dataclass(frozen=True)
class TabulatedPath(ReturnPath):
    """Piecewise-linear rate through ``(time, rate)`` knots.

    Knot times must be strictly increasing; evaluation outside the knot
    range is an error (no extrapolation).
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError("tabulated path needs at least two knots")
        times, rates = self._knot_arrays
        if not (np.isfinite(times).all() and np.isfinite(rates).all()):
            raise ValueError("knot times and rates must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("knot times must be strictly increasing")

    def domain(self) -> tuple[float, float]:
        return (self.knots[0][0], self.knots[-1][0])

    @cached_property
    def _knot_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        times, rates = (np.array(column, dtype=float) for column in zip(*self.knots))
        return times, rates

    @cached_property
    def _hash(self) -> int:
        return hash((self.knots,))

    def __hash__(self):
        """The dataclass hash, computed once: it keys the memos of the
        passes over a rotation, and the knots cannot change."""
        return self._hash

    def _kinks(self):
        return self._knot_arrays[0][1:-1]

    def _rates(self, ts: np.ndarray) -> np.ndarray:
        return np.interp(ts, *self._knot_arrays)


@dataclass(frozen=True)
class ReversedPath(ReturnPath):
    """Another path played backwards: rate at ``t`` is the inner path's
    rate at ``horizon - t``."""

    inner: ReturnPath
    horizon: float

    def __post_init__(self):
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")

    def domain(self) -> tuple[float, float]:
        lo, hi = self.inner.domain()
        return (self.horizon - hi, self.horizon - lo)

    def _kinks(self):
        return self.horizon - np.asarray(self.inner._kinks(), dtype=float)

    def _rates(self, ts: np.ndarray) -> np.ndarray:
        return self.inner._clipped_rates(self.horizon - ts)
