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

from .errors import DegenerateCapitalError, DomainError
from .quadrature import DEFAULT_INTERVALS, _definite_integral, _grid

#: Longest chain of ReversedPath around one path: documents nest one or two.
MAX_REVERSALS = 16

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

    def _clipped_rates(self, nodes: np.ndarray) -> np.ndarray:
        """Rates at the nodes of a quadrature grid moved into the domain,
        which absorbs the slack the domain checks allow. Every node of a
        grid lies between its first and its last, so the nodes are clipped
        only when one of those two lies outside the domain: otherwise the
        clip would return them unchanged. ``evaluate`` clips any array."""
        lo, hi = self.domain()
        if not (lo <= nodes[0] <= hi and lo <= nodes[-1] <= hi):
            nodes = np.clip(nodes, lo, hi)
        return self._rates(nodes)

    def evaluate(self, t):
        """Spot return rate at time ``t`` (scalar or ndarray), per year.

        Raises:
            DomainError: if any requested time lies outside the domain.
        """
        ts = np.asarray(t, dtype=float)
        lo, hi = self.domain()
        if ts.size:
            _require_within("times", (np.min(ts), np.max(ts)), "path domain", (lo, hi))
        out = self._rates(np.clip(ts, lo, hi))
        if ts.ndim == 0:
            return float(out)
        return out

    def cumulative_return(self, t: float, *, intervals: int = DEFAULT_INTERVALS) -> float:
        """Integral of the spot rate from time 0 to ``t`` (dimensionless).

        Computed by composite Simpson quadrature of about ``intervals``
        subintervals over ``[0, t]``, cut at the path's kinks.

        Raises:
            DomainError: if ``[0, t]`` leaves the path domain, or ``t`` is
                negative or infinite.
            DegenerateCapitalError: if the integral is beyond float range.
        """
        _require_within("span", (0.0, t), "path domain", self.domain())
        if not 0.0 <= t < math.inf:
            raise DomainError("cumulative return runs forward from time 0 to a finite time")
        upper = min(t, self.domain()[1])  # the slack admits t, not a longer integral
        if upper <= 0.0:
            return 0.0
        ts, steps = _grid(0.0, upper, self._kinks(), intervals)
        with np.errstate(over="ignore", invalid="ignore"):  # judged below
            total = _definite_integral(self._clipped_rates(ts), steps)
        if not math.isfinite(total):
            raise DegenerateCapitalError(f"cumulative return to t={t:g} is beyond float range")
        return total

    def time_average_rate(self, horizon: float, *, intervals: int = DEFAULT_INTERVALS) -> float:
        """Average spot rate over ``[0, horizon]``, per year.

        Raises:
            DomainError: if ``horizon`` is not strictly positive, is
                infinite or exceeds the path domain.
            DegenerateCapitalError: if the cumulative return is beyond
                float range.
        """
        if horizon <= 0.0:
            raise DomainError("averaging horizon must be > 0")
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
class _KnotTable:
    """At least two ``knots`` whose first column strictly increases: the
    rules of :class:`TabulatedPath` and ``estate.TabulatedAgeDensity``,
    whose ``_what`` and ``_first`` name the table and that column in the
    messages. Each sets ``__hash__ = _KnotTable.__hash__`` in its body, or
    its dataclass decorator would generate a hash over the knots."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError(f"tabulated {self._what} needs at least two knots")
        first = self._knot_arrays[0]
        if np.any(first[1:] <= first[:-1]):  # no subtraction, so no inf - inf
            raise ValueError(f"knot {self._first} must be strictly increasing")

    @cached_property
    def _knot_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        first, second = (np.array(column, dtype=float) for column in zip(*self.knots))
        return first, second

    @cached_property
    def _hash(self) -> int:
        return hash((self.knots,))

    def __hash__(self):
        """The dataclass hash, computed once: it keys the memos of the
        passes over a rotation, and the knots cannot change."""
        return self._hash


@dataclass(frozen=True)
class TabulatedPath(_KnotTable, ReturnPath):
    """Piecewise-linear rate through ``(time, rate)`` knots.

    Knot times must be strictly increasing; evaluation outside the knot
    range is an error (no extrapolation).
    """

    _what, _first = "path", "times"
    __hash__ = _KnotTable.__hash__

    def __post_init__(self):
        super().__post_init__()
        if not all(np.isfinite(column).all() for column in self._knot_arrays):
            raise ValueError("knot times and rates must be finite")

    def domain(self) -> tuple[float, float]:
        return (self.knots[0][0], self.knots[-1][0])

    def _kinks(self):
        return self._knot_arrays[0][1:-1]

    @cached_property
    def _interp_scale(self) -> float:
        """1, or the largest knot rate in magnitude where a slope between
        knots is beyond float range: np.interp would give inf between
        them, so it interpolates the rates divided by this instead."""
        times, rates = self._knot_arrays
        with np.errstate(over="ignore", invalid="ignore"):
            slopes_fit = np.isfinite(np.diff(rates) / np.diff(times)).all()
        return 1.0 if slopes_fit else float(np.abs(rates).max())

    def _rates(self, ts: np.ndarray) -> np.ndarray:
        times, rates = self._knot_arrays
        scale = self._interp_scale
        if scale == 1.0:
            return np.interp(ts, times, rates)
        return np.interp(ts, times, rates / scale) * scale


@dataclass(frozen=True)
class ReversedPath(ReturnPath):
    """Another path played backwards: rate at ``t`` is the inner path's
    rate at ``horizon - t``."""

    inner: ReturnPath
    horizon: float

    def __post_init__(self):
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")
        if self._reversals > MAX_REVERSALS:
            raise ValueError(f"reversed paths nest at most {MAX_REVERSALS} deep")

    @property
    def _reversals(self) -> int:
        return getattr(self.inner, "_reversals", 0) + 1

    def domain(self) -> tuple[float, float]:
        lo, hi = self.inner.domain()
        return (self.horizon - hi, self.horizon - lo)

    def _kinks(self):
        return self.horizon - np.asarray(self.inner._kinks(), dtype=float)

    def _rates(self, ts: np.ndarray) -> np.ndarray:
        # Called with times inside the domain [h - hi, h - lo], where [lo, hi]
        # is the inner domain: horizon - ts lies in [h - (h - lo), h - (h - hi)]
        # and leaves [lo, hi] only where those subtractions round outward.
        lo, hi = self.inner.domain()
        h = self.horizon
        times = h - ts
        if not (lo <= h - (h - lo) and h - (h - hi) <= hi):
            times = np.clip(times, lo, hi)
        return self.inner._rates(times)
