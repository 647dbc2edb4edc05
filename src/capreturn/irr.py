"""Internal rates of return of dated cash-flow schedules.

Discounting each event of a schedule continuously and substituting
``x = exp(-rate * step)``, with ``step`` the events' common grid step,
turns the zero-value condition into a polynomial in ``x``, whose full
complex root set is found by simultaneous iteration (:func:`general_irr`).
Most of those roots carry no financial meaning, but all of them exist
and all are reported. Each step of the iteration evaluates the
polynomial in blocks of ``_BLOCK`` coefficients: one matrix product per
step, then Horner's rule across the blocks. It forms the pairwise root
differences ``_BLOCK`` estimates at a time, so its memory grows with the
degree, not with its square. The closed-form IRR of an investment-free
growth cycle is :func:`capreturn.growth.growth_cycle_irr`.
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

#: Event times must sit on the common grid within this many years.
TIME_TOLERANCE = 1e-9

#: Reported real roots must satisfy |sum(C_k * f_k)| below this fraction of
#: sum(|C_k| * f_k), f_k = exp(-rate*t_k): each rate is judged against its
#: own discounted amounts, whose rounding sets the scale at any rate.
RESIDUAL_TOLERANCE = 1e-8

# Largest polynomial degree solved; it sizes the coefficient array.
_MAX_DEGREE = 4096

_MAX_ITERATIONS = 500
_MOVEMENT_TOLERANCE = 1e-12
# Start-ring phase: float(np.random.default_rng(0).uniform(0.1, 0.9)) on numpy 2.4.6.
_START_PHASE = 0.6095693498571635
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
    order, with ``residuals`` aligned: at each rate, the absolute
    discounted value over the discounted total magnitude,
    ``|Σ Cₖ·e^(−r·tₖ)| / Σ|Cₖ|·e^(−r·tₖ)``, below ``RESIDUAL_TOLERANCE``.
    ``principal_root`` is the real root of smallest magnitude (ties
    to the positive one), or ``None`` when every root is complex.
    Each real rate is listed once, however many estimates polish onto it.
    ``complex_root_count`` counts the remaining roots, so real plus
    complex equals ``degree``, the degree of the discretized polynomial
    after common factors of ``x`` are removed. ``base_step`` is the grid
    step (years) used for the substitution ``x = exp(-rate * base_step)``.
    """

    principal_root: float | None
    all_real_roots: tuple[float, ...]
    complex_root_count: int
    residuals: tuple[float, ...]
    base_step: float
    degree: int


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
        quotient = t / step  # infinite once t is beyond float range in steps
        if not (math.isfinite(quotient) and abs(t - round(quotient) * step) <= TIME_TOLERANCE):
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
    Horner's rule in ``x**width`` combines the row sums. A single row is
    the whole sum already.
    """
    width = rows.shape[1]
    powers = np.empty((width, len(x)), dtype=complex)
    powers[0] = 1.0
    powers[1:] = x
    np.multiply.accumulate(powers, axis=0, out=powers)
    # Real rows times the real and imaginary parts side by side: a real
    # matrix product, half the work of a complex one.
    row_sums = (rows @ powers.view(float)).view(complex)
    magnitude_sums = np.abs(rows) @ np.abs(powers)
    if len(rows) == 1:
        return row_sums[0], magnitude_sums[0]
    values = _horner(row_sums, powers[-1] * x)
    # The scale sums positive terms, whose rounding does not cancel, so its
    # step is one rounded power rather than the running product.
    scale = _horner(magnitude_sums, np.abs(x) ** width)
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
    fixed phase and updates every root estimate at once; stops when
    estimates stop moving or the polynomial values are at rounding level
    relative to their own magnitude scale. A NaN estimate makes every
    estimate NaN on the next step, so the iteration gives up at once; an
    estimate turns NaN only through a NaN or infinite step, so only such a
    step is followed by a scan for one.

    Each step evaluates the polynomial by :func:`_evaluate` on the
    coefficients split once into rows of at most ``_BLOCK``, and builds
    the products of root differences ``_BLOCK`` estimates at a time, each
    product reduced left to right along its row. A solve of degree ``n``
    allocates one ``_BLOCK x n`` block of root differences, reused on
    every step, beside a ``_BLOCK x n`` matrix of powers.
    """
    rows = _coefficient_rows(coeffs) * (1.0 / coeffs[-1])  # monic
    degree = len(coeffs) - 1

    radius = 1.0 + float(np.max(np.abs(rows.ravel()[:degree])))
    angles = 2.0 * np.pi * (np.arange(degree) + _START_PHASE) / degree
    roots = radius * np.exp(1j * angles)

    block = np.empty((min(_BLOCK, degree), degree), dtype=complex)
    products = np.empty(degree, dtype=complex)
    for _ in range(_MAX_ITERATIONS):
        values, scale = _evaluate(rows, roots)
        if (np.abs(values) <= 1e-14 * scale).all():
            return roots
        for lo in range(0, degree, _BLOCK):
            part = block[: degree - lo]
            np.subtract(roots[lo : lo + _BLOCK, None], roots, out=part)
            part.reshape(-1)[lo :: degree + 1] = 1.0  # diagonal: an estimate less itself
            np.multiply.reduce(part, axis=1, out=products[lo : lo + _BLOCK])
        steps = values / products
        roots = roots - steps
        movement = float(np.abs(steps).max())
        if movement < _MOVEMENT_TOLERANCE:
            return roots
        if not math.isfinite(movement) and np.isnan(roots).any():
            break
    worst = float(np.max(np.abs(_evaluate(rows, roots)[0])))
    raise RootConvergenceError("root iteration did not converge", worst)


def _polish_rate(times: np.ndarray, amounts: np.ndarray, rate: float) -> tuple[float, float]:
    """Newton-refine a candidate rate on the discounted-value function;
    returns it with its relative residual ``|Σ Cₖ·fₖ| / Σ|Cₖ|·fₖ``, each
    ``fₖ = exp(−rate·tₖ)`` over the largest, 1: none overflows, and with
    no amount 0 the denominator is positive."""
    for _ in range(50):
        exponents = -rate * times
        weights = amounts * np.exp(exponents - exponents.max())
        value = float(np.sum(weights))
        slope = float(np.sum(-times * weights))
        if slope == 0.0:
            break
        step = value / slope
        rate -= step
        if abs(step) <= 1e-16 * max(1.0, abs(rate)):
            break
    exponents = -rate * times
    factors = np.exp(exponents - exponents.max())
    scale = float(np.sum(np.abs(amounts) * factors))
    return rate, abs(float(np.sum(amounts * factors))) / scale


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
    # Scaled exactly, by a power of two, so that no sum of amounts overflows.
    _, exponent = math.frexp(max(abs(e.amount) for e in schedule.events))
    amounts = np.ldexp([e.amount for e in schedule.events], -exponent)

    step = _common_step([t for t in times.tolist() if t > TIME_TOLERANCE])
    # Judged as floats: an exponent beyond int64 would wrap in astype(int).
    exponents = np.rint(times / step)
    degree_span = exponents.max()
    if degree_span > _MAX_DEGREE:
        raise DiscretizationError(
            f"discretized polynomial degree {degree_span:.6g} exceeds {_MAX_DEGREE}; "
            "event times are too finely incommensurate"
        )

    coeffs = np.zeros(int(degree_span) + 1)
    np.add.at(coeffs, exponents.astype(int), amounts)
    nonzero = np.nonzero(coeffs)[0]
    if len(nonzero) == 0:
        raise NoRootError("all amounts cancel; every rate is a root")
    coeffs = coeffs[nonzero[0] : nonzero[-1] + 1]  # factor out powers of x
    degree = len(coeffs) - 1
    if degree == 0:
        raise NoRootError("events collapse to a single grid instant")

    with np.errstate(all="ignore"):  # a diverging iteration is judged there
        roots = _durand_kerner(coeffs)

    live = amounts != 0.0  # no amount of 0 may hold the largest factor in the polish
    times, amounts = times[live], amounts[live]
    found: list[tuple[float, float]] = []
    for x in roots:
        if abs(x.imag) > 1e-8 * (1.0 + abs(x)) or x.real <= 0.0:
            continue
        rate, residual = _polish_rate(times, amounts, -math.log(x.real) / step)
        if residual < RESIDUAL_TOLERANCE:
            found.append((rate, residual))
    # Estimates that stop short of their roots can polish onto one rate.
    real: list[tuple[float, float]] = []
    for rate, residual in sorted(found):
        if not real or rate - real[-1][0] > 1e-12 * max(1.0, abs(rate)):
            real.append((rate, residual))
    rates = [rate for rate, _ in real]
    principal = min(rates, key=lambda r: (abs(r), 0 if r > 0 else 1), default=None)
    return IrrResult(
        principal_root=principal,
        all_real_roots=tuple(rates),
        complex_root_count=degree - len(rates),
        residuals=tuple(residual for _, residual in real),
        base_step=step,
        degree=degree,
    )
