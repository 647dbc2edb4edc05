"""Internal rates of return on growth cycles and cash-flow schedules.

Two routes are provided. For an investment-free growth cycle the IRR has
a closed form: the discount rate that zeroes the discounted terminal
gain is exactly the time-average spot rate over the rotation, so it
depends on the path through that average alone, however the rate is
sequenced (:func:`growth_cycle_irr`). For an arbitrary dated cash-flow
schedule, discounting each event continuously and substituting
``x = exp(-rate * step)`` turns the zero-value condition into a
polynomial in ``x``, whose full complex root set is found by
simultaneous iteration (:func:`general_irr`). Most of those roots carry
no financial meaning, but all of them exist and all are reported. Each
step of the iteration evaluates the polynomial in blocks of ``_BLOCK``
coefficients: one matrix product per step, then Horner's rule across
the blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiscretizationError,
    NoRootError,
    RootConvergenceError,
)
from .growth import GrowthScenario, _cycle_average, _cycle_averages
from .optimize import _first_order_argmax, _rounding
from .quadrature import DEFAULT_INTERVALS

#: Event times must sit on the common grid within this many years.
TIME_TOLERANCE = 1e-9

#: Reported real roots must satisfy |sum(C_k * exp(-rate*t_k))| below
#: this fraction of sum(|C_k|).
RESIDUAL_TOLERANCE = 1e-8

# Largest polynomial degree solved; it sizes the coefficient array.
_MAX_DEGREE = 4096

_MAX_ITERATIONS = 500
_MOVEMENT_TOLERANCE = 1e-12
_START_SEED = 0
# Coefficients per row of the blocked polynomial evaluation.
_BLOCK = 64


@dataclass(frozen=True)
class CashEvent:
    """Dated cash amount; sign carries direction (outflow negative)."""

    time: float
    amount: float

    def __post_init__(self):
        if not (math.isfinite(self.time) and math.isfinite(self.amount)):
            raise ValueError("time and amount must be finite")


@dataclass(frozen=True)
class CashFlowSchedule:
    """Dated cash events for cash-basis rate-of-return analysis.

    Needs at least two events with nondecreasing, nonnegative times, and
    both signs present — an all-one-sign schedule has no internal rate of
    return at all, so it is rejected at construction.
    """

    events: tuple[CashEvent, ...]

    def __post_init__(self):
        if len(self.events) < 2:
            raise ValueError("schedule needs at least two events")
        times = [e.time for e in self.events]
        if any(t < 0.0 for t in times):
            raise ValueError("event times must be nonnegative")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("event times must be nondecreasing")
        amounts = [e.amount for e in self.events]
        if not (any(a > 0.0 for a in amounts) and any(a < 0.0 for a in amounts)):
            raise NoRootError(
                "schedule has no sign change, so no internal rate of return exists"
            )


@dataclass(frozen=True)
class IrrResult:
    """All rates solving the zero-discounted-value condition.

    ``all_real_roots`` holds the real per-year rates in increasing
    order, with ``residuals`` aligned. ``principal_root`` is the real
    root of smallest magnitude (ties to the positive one), or ``None``
    when every root is complex. ``complex_root_count`` counts the
    remaining roots, so real plus complex equals ``degree``, the degree
    of the discretized polynomial after common factors of ``x`` are
    removed. ``base_step`` is the grid step (years) used for the
    substitution ``x = exp(-rate * base_step)``.
    """

    principal_root: float | None
    all_real_roots: tuple[float, ...]
    complex_root_count: int
    residuals: tuple[float, ...]
    base_step: float
    degree: int


def growth_cycle_irr(
    scenario: GrowthScenario, *, intervals: int = DEFAULT_INTERVALS
) -> float:
    """IRR of an investment-free growth cycle, per year.

    Buying the cycle at its starting capital and selling at its terminal
    capital breaks even under continuous discounting exactly at the
    time-average spot rate, which this returns.

    Raises:
        UnsupportedScheduleError: if the scenario has intermediate
            investment events (convert those to a cash-flow schedule and
            use :func:`general_irr` instead).
    """
    return _cycle_average(scenario, intervals)


def _irr_argmax(scenario: GrowthScenario, rotation_grid, intervals: int) -> tuple[float, float]:
    """``optimize._first_order_argmax`` of the IRR, the time-average rate:
    its slope ``(r(tau) - irr(tau)) / tau`` vanishes where the spot rate
    falls to it."""

    def curve(longest: GrowthScenario, grid: np.ndarray):
        times, avg = _cycle_averages(longest, grid, intervals)
        return times, avg, _rounding(avg)

    return _first_order_argmax(
        scenario,
        rotation_grid,
        curve,
        lambda rotation: (growth_cycle_irr(rotation, intervals=intervals),) * 2,
    )


def _common_step(times: list[float]) -> float:
    """Greatest step placing every time on an integer grid point. Every
    time exceeds ``TIME_TOLERANCE``, and so does every step Euclid takes."""
    if not times:
        raise NoRootError("all events occur at a single instant")
    step = 0.0
    for t in times:
        while t > TIME_TOLERANCE:
            step, t = t, math.fmod(step, t)
    for t in times:
        if abs(t - round(t / step) * step) > TIME_TOLERANCE:
            raise DiscretizationError(
                f"event time {t:g} is not a multiple of the base step {step:g}"
            )
    return step


def _coefficient_rows(coeffs: np.ndarray) -> np.ndarray:
    """Real ascending ``coeffs`` as rows of ``min(_BLOCK, len(coeffs))``,
    zero-padded at the top: row ``j`` holds the coefficients of
    ``x**(j*width)`` up to ``x**(j*width + width - 1)``."""
    width = min(_BLOCK, len(coeffs))
    rows = np.zeros((-(-len(coeffs) // width), width))
    rows.flat[: len(coeffs)] = coeffs
    return rows


def _evaluate(rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The polynomial with coefficient ``rows`` at every ``x``, and its
    rounding scale, the same sum over ``|coefficients|`` at ``|x|``.

    One ``width x len(x)`` matrix holds the powers ``x**0 .. x**(width-1)``;
    one matrix product sums every row of coefficients against it, and
    Horner's rule in ``x**width`` combines the row sums.
    """
    width = rows.shape[1]
    powers = np.empty((width, len(x)), dtype=complex)
    powers[0] = 1.0
    powers[1:] = x
    np.cumprod(powers, axis=0, out=powers)
    # Real rows times the real and imaginary parts side by side: a real
    # matrix product, half the work of a complex one.
    values = _horner((rows @ powers.view(float)).view(complex), powers[-1] * x)
    # The scale sums positive terms, whose rounding does not cancel, so its
    # step is one rounded power rather than the running product.
    magnitudes = np.abs(powers)
    scale = _horner(np.abs(rows) @ magnitudes, np.abs(x) ** width)
    return values, scale


def _horner(row_sums: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``sum(row_sums[j] * step**j)`` by Horner's rule."""
    total = row_sums[-1]
    for row in row_sums[-2::-1]:
        total = total * step + row
    return total


def _durand_kerner(coeffs: np.ndarray) -> np.ndarray:
    """All complex roots of a polynomial by simultaneous iteration.

    ``coeffs`` are real, in ascending powers. Starts from a ring with a
    seeded random phase and updates every root estimate at once; stops when
    estimates stop moving or the polynomial values are at rounding level
    relative to their own magnitude scale. A NaN estimate makes every
    estimate NaN on the next step, so the iteration gives up at once.

    Each step evaluates the polynomial by :func:`_evaluate` on the
    coefficients split once into rows of at most ``_BLOCK``. A solve of
    degree ``n`` allocates the ``n x n`` matrix of root differences and
    a ``_BLOCK x n`` matrix of powers.
    """
    rows = _coefficient_rows(coeffs) * (1.0 / coeffs[-1])  # monic
    degree = len(coeffs) - 1

    rng = np.random.default_rng(_START_SEED)
    radius = 1.0 + float(np.max(np.abs(rows.ravel()[:degree])))
    angles = 2.0 * np.pi * (np.arange(degree) + rng.uniform(0.1, 0.9)) / degree
    roots = radius * np.exp(1j * angles)

    for _ in range(_MAX_ITERATIONS):
        values, scale = _evaluate(rows, roots)
        if np.all(np.abs(values) <= 1e-14 * scale):
            return roots
        diffs = roots[:, None] - roots[None, :]
        np.fill_diagonal(diffs, 1.0)
        steps = values / np.prod(diffs, axis=1)
        roots = roots - steps
        if np.isnan(roots).any():
            break
        if float(np.max(np.abs(steps))) < _MOVEMENT_TOLERANCE:
            return roots
    worst = float(np.max(np.abs(_evaluate(rows, roots)[0])))
    raise RootConvergenceError("root iteration did not converge", worst)


def _polish_rate(times: np.ndarray, amounts: np.ndarray, rate: float) -> tuple[float, float]:
    """Newton-refine a candidate rate on the discounted-value function;
    returns the refined rate and its absolute residual."""
    for _ in range(50):
        weights = amounts * np.exp(-rate * times)
        value = float(np.sum(weights))
        slope = float(np.sum(-times * weights))
        if slope == 0.0:
            break
        step = value / slope
        rate -= step
        if abs(step) <= 1e-16 * max(1.0, abs(rate)):
            break
    residual = abs(float(np.sum(amounts * np.exp(-rate * times))))
    return rate, residual


def general_irr(schedule: CashFlowSchedule) -> IrrResult:
    """Every rate zeroing the schedule's discounted value.

    The event times are placed on their greatest common grid step, the
    discounted-value condition becomes a polynomial via
    ``x = exp(-rate * step)``, and all of its complex roots are located
    simultaneously. Real positive ``x`` roots map back to real per-year
    rates; each is Newton-polished on the original exponential form and
    reported with its residual.

    Raises:
        DiscretizationError: times share no common step within tolerance,
            or the resulting polynomial degree exceeds 4096.
        NoRootError: the schedule degenerates (single instant, or all
            amounts cancel) and no rate is defined.
        RootConvergenceError: the simultaneous iteration stalled.
    """
    times = np.array([e.time for e in schedule.events], dtype=float)
    amounts = np.array([e.amount for e in schedule.events], dtype=float)

    step = _common_step([t for t in times if t > TIME_TOLERANCE])
    exponents = np.rint(times / step).astype(int)
    degree_span = int(exponents.max())
    if degree_span > _MAX_DEGREE:
        raise DiscretizationError(
            f"discretized polynomial degree {degree_span} exceeds {_MAX_DEGREE}; "
            "event times are too finely incommensurate"
        )

    coeffs = np.zeros(degree_span + 1)
    np.add.at(coeffs, exponents, amounts)
    nonzero = np.nonzero(coeffs)[0]
    if len(nonzero) == 0:
        raise NoRootError("all amounts cancel; every rate is a root")
    coeffs = coeffs[nonzero[0] : nonzero[-1] + 1]  # factor out powers of x
    degree = len(coeffs) - 1
    if degree == 0:
        raise NoRootError("events collapse to a single grid instant")

    with np.errstate(all="ignore"):  # a diverging iteration is judged there
        roots = _durand_kerner(coeffs)

    amount_scale = float(np.sum(np.abs(amounts)))
    rates: list[float] = []
    residuals: list[float] = []
    for x in roots:
        if abs(x.imag) > 1e-8 * (1.0 + abs(x)) or x.real <= 0.0:
            continue
        rate, residual = _polish_rate(times, amounts, -math.log(x.real) / step)
        if residual < RESIDUAL_TOLERANCE * amount_scale:
            rates.append(rate)
            residuals.append(residual)

    order = sorted(range(len(rates)), key=lambda i: rates[i])
    rates = [rates[i] for i in order]
    residuals = [residuals[i] for i in order]
    principal = None
    if rates:
        principal = min(rates, key=lambda r: (abs(r), 0 if r > 0 else 1))
    return IrrResult(
        principal_root=principal,
        all_real_roots=tuple(rates),
        complex_root_count=degree - len(rates),
        residuals=tuple(residuals),
        base_step=step,
        degree=degree,
    )
