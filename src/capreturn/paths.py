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

        A path with an exact ``_antiderivative`` (a tabulated path) gives
        its difference between 0 and ``t``; ``intervals`` is then unused.
        Any other path, or a running sum of one beyond float range, takes
        composite Simpson quadrature of about ``intervals`` subintervals
        over ``[0, t]``, cut at the path's kinks.

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
        with np.errstate(over="ignore", invalid="ignore"):  # judged below
            total = math.nan
            if hasattr(self, "_antiderivative"):
                start, end = self._antiderivative(np.array([0.0, upper]))
                total = float(end - start)
            if not math.isfinite(total):  # no exact integral, or a running sum beyond float range
                ts, steps = _grid(0.0, upper, self._kinks(), intervals)
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
        # One buffer, in the formula's order, so each rate is bit-identical to it.
        out = np.empty_like(ts, dtype=float)
        np.multiply(ts, np.pi, out=out)
        out /= self.full_cycle
        np.sin(out, out=out)
        np.square(out, out=out)
        out *= 2.0 * (1.0 - self.shape)
        out += self.shape
        out *= self.mean_rate
        return out


@dataclass(frozen=True)
class _KnotTable:
    """At least two ``knots`` whose first column strictly increases: the
    rules of :class:`TabulatedPath` and ``estate.TabulatedAgeDensity``,
    whose ``_what`` and ``_first`` name the table and that column in the
    messages. The constructor takes any pairs of numbers and is the one
    place that builds the table's float array: ``knots`` holds its rows
    as float tuples and ``_knot_arrays`` its two columns."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        cells = np.array(self.knots, dtype=float)
        if len(cells) < 2:
            raise ValueError(f"tabulated {self._what} needs at least two knots")
        if cells.shape[1:] != (2,):
            raise ValueError(f"tabulated {self._what} knots must be pairs")
        object.__setattr__(self, "knots", tuple(map(tuple, cells.tolist())))
        object.__setattr__(self, "_knot_arrays", cells.T.copy())
        if np.any(cells[1:, 0] <= cells[:-1, 0]):  # no subtraction, so no inf - inf
            raise ValueError(f"knot {self._first} must be strictly increasing")

    @cached_property
    def _hash(self) -> int:
        return hash((self.knots,))

    def __hash__(self):
        """The dataclass hash, computed once: it keys the memos of the
        passes over a rotation, and the knots cannot change."""
        return self._hash


@dataclass(frozen=True, eq=False)
class TabulatedPath(_KnotTable, ReturnPath):
    """Piecewise-linear rate through ``(time, rate)`` knots.

    Knot times must be strictly increasing; evaluation outside the knot
    range is an error (no extrapolation).
    """

    _what, _first = "path", "times"

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self._knot_arrays).all():
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

    @cached_property
    def _knot_integrals(self) -> np.ndarray:
        """Integral of the rate from the first knot to each knot: the
        running sum of the trapezoids between knots, each taken as
        ``w/2 * r_i + w/2 * r_(i+1)`` so that no sum or difference of
        two rates is formed, which could leave float range."""
        times, rates = self._knot_arrays
        half = np.diff(times) / 2.0
        with np.errstate(over="ignore", invalid="ignore"):  # judged by the callers
            return np.concatenate(([0.0], np.cumsum(half * rates[:-1] + half * rates[1:])))

    def _antiderivative(self, ts: np.ndarray) -> np.ndarray:
        """Integral of the rate from the first knot to each of ``ts``,
        moved into the domain: the running sum to the knot at or below,
        plus the trapezoid from that knot to the time, which is exact for
        a linear rate. Not finite where a running sum is beyond float
        range."""
        times, rates = self._knot_arrays
        ts = np.clip(ts, times[0], times[-1])
        below = np.searchsorted(times, ts, "right") - 1
        half = (ts - times[below]) / 2.0
        return self._knot_integrals[below] + (half * rates[below] + half * self._rates(ts))


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
