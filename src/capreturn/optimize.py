"""Every rotation-length search, with the curves it reads and the passes
they remember. An optimum is where the spot rate falls to the
objective's threshold, bracketed by the best node of one pass over the
longest rotation and found on that pass's running sums, with no further
pass. A search returns the rotation length alone: a caller that needs
the objective there values it."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .errors import DegenerateCapitalError, DomainError, InvalidLeverageError
from .growth import GrowthScenario, _require_investment_free, _segments, with_rotation
from .leverage import _require_leverage
from .memo import remember_latest
from .quadrature import DEFAULT_INTERVALS, _definite_integral, _grid, cumulative_simpson_nodes
from .valuation import _require_discount

# A node value computed to about float precision lies within this share
# of itself, or of 1 if it is smaller, of its exact value. On constant
# paths the rroc and IRR curves vary by less than 5e-14, and the
# cumulative return R is off by less than 1e-13 of itself up to R = 1000.
FLAT_SPREAD = 1e-12


def _rounding(values: np.ndarray) -> np.ndarray:
    """The rounding of node values computed to about float precision."""
    return FLAT_SPREAD * np.maximum(1.0, np.abs(values))


def _first_order_argmax(
    scenario: GrowthScenario,
    rotation_grid: Sequence[float],
    curve: Callable[
        [GrowthScenario, np.ndarray],
        tuple[np.ndarray, np.ndarray, np.ndarray, Callable[..., float]],
    ],
) -> float:
    """Rotation length maximizing an objective between the shortest and
    the longest rotation of the grid.

    ``curve(longest, grid)`` reads one pass over the longest rotation,
    cut at every grid point, and gives ``(times, values, rounding,
    threshold)``: the nodes; at each a value (free of initial capital)
    that orders the rotations ending there as the objective does, and its
    rounding, with 0/0 and overflow let pass; and ``threshold(i, t, step,
    panel)``, the objective's threshold at time ``t``, whose gap to the
    spot rate has the sign of the objective's slope. It extends the
    running sums at node ``i`` by one Simpson panel of step ``step`` over
    ``[times[i], t]``, with ``panel`` the spot rates at its three nodes.
    The best node, the shortest of equals, and its nearest distinct
    neighbours bracket the root of that gap, which is searched with no
    further pass: at a node the gap takes the node's value (the panel has
    width 0), and between nodes it extends the last node at or before
    ``t``, across whose panel no kink or event lies, since both cut the
    pass. Without a sign change the best node is the result. A curve flat
    to its rounding, whose spread is within the largest rounding of a
    node, gives the shortest rotation.

    Raises:
        DomainError: empty grid, or a grid point not finite and > 0.
        DegenerateCapitalError: a node value within the grid's span is
            not finite.
    """
    grid = np.sort(rotation_grid)  # NaN last
    if not grid.size:
        raise DomainError("rotation grid must not be empty")
    first, last = float(grid[0]), float(grid[-1])
    if not 0.0 < first <= last < math.inf:
        raise DomainError("rotation grid points must be finite and > 0")
    with np.errstate(invalid="ignore", over="ignore"):
        times, values, rounding, threshold = curve(with_rotation(scenario, last), grid)
        inside = times >= first
        taus, values = times[inside], values[inside]
        if not np.isfinite(values).all():
            raise DegenerateCapitalError("objective is beyond float range on the grid")
        if np.ptp(values) <= rounding[inside].max():
            return first
        best = float(taus[np.argmax(values)])  # nodes ascend, so ties go to the shorter
        below, above = taus[taus < best], taus[taus > best]
        lo = float(below[-1]) if below.size else best
        hi = float(above[0]) if above.size else best

        def gap(t: float) -> float:  # has the slope's sign
            i = np.searchsorted(times, t, "right") - 1
            step = (t - times[i]) / 2.0
            panel = scenario.path._clipped_rates(np.array([times[i], times[i] + step, t]))
            return float(panel[2] - threshold(i, t, step, panel))

        root = _bracketed_root(gap, lo, hi, tol=1e-9 * max(1.0, hi))
    return best if root is None else root


def _bracketed_root(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> float | None:
    """A root of ``f`` between ``a`` and ``b`` to within ``tol``, by
    Brent's method: inverse quadratic or secant steps while they shrink
    the bracket fast enough, bisection otherwise.

    The result is always a point where ``f`` was evaluated. Returns None
    when ``f(a)`` and ``f(b)`` are nonzero and of one sign, so that no
    root is bracketed.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        return None
    # b is the best estimate, c the other end of the bracket, a the
    # previous estimate; the last two steps guard interpolation.
    c, fc = a, fa
    step = prior = b - a
    delta = tol / 2.0
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            step = prior = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        half = (c - b) / 2.0
        if fb == 0.0 or abs(half) <= delta:
            return b
        if abs(prior) > delta and abs(fb) < abs(fa):
            if a == c:  # secant
                trial = -fb * (b - a) / (fb - fa)
            else:  # inverse quadratic through a, b and c
                da, dc = (fa - fb) / (a - b), (fc - fb) / (c - b)
                trial = -fb * (fc * dc - fa * da) / (dc * da * (fc - fa))
            if 2.0 * abs(trial) < min(abs(prior), 3.0 * abs(half) - delta):
                prior, step = step, trial
            else:
                prior = step = half
        else:
            prior = step = half
        a, fa = b, fb
        b += step if abs(step) > delta else math.copysign(delta, half)
        fb = f(b)
    return b


@remember_latest
def _cycle_returns(scenario: GrowthScenario, cuts: tuple[float, ...], intervals: int):
    """The nodes after time 0 of one Simpson pass over the rotation, cut at
    path kinks and ``cuts``, and the cumulative return to each. No capital
    is built, so nothing overflows. The latest pass is remembered for the
    optima at several discount rates; callers only read its arrays."""
    _require_investment_free(scenario)
    all_cuts = np.concatenate((scenario.path._kinks(), cuts))
    times, steps = _grid(0.0, scenario.rotation_length, all_cuts, intervals)
    returns = cumulative_simpson_nodes(scenario.path._clipped_rates(times), steps)
    return times[1:], returns[1:]


@remember_latest
def _rroc_argmax(
    scenario: GrowthScenario, rotation_grid: tuple[float, ...], intervals: int
) -> float:
    """``optimize._first_order_argmax`` of the capital return, whose
    threshold is the capital return itself:
    ``d rroc / d tau = K(tau) / C(tau) * (r(tau) - rroc(tau))``, with ``C``
    the integral of capital ``K``. The running integrals ``P`` of ``K * r``
    and ``C`` of ``K`` at a node of the longest rotation are those of the
    rotation ending there, since a shorter rotation only drops the events
    at or after its end; between nodes, capital grows from the node's by
    the panel's running integral of the rate, and the threshold is
    ``P / C``. A constant path is flat: the shortest rotation wins.

    The latest search is remembered, so the equity-return maximizers of
    one scenario at several market rates or leverages share it. A
    scenario that cannot be hashed is searched afresh.

    Raises:
        DomainError: empty grid, or a grid point not finite and > 0.
        DegenerateCapitalError: from the pass over the longest rotation.
    """

    def curve(longest: GrowthScenario, grid: np.ndarray):
        times, steps, rates, capital = _segments(longest, grid, intervals)
        profit = cumulative_simpson_nodes(capital * rates, steps)
        capitalization = cumulative_simpson_nodes(capital, steps)
        ratio = profit / capitalization

        def threshold(i, t, step, panel):
            grown = capital[i] * np.exp(cumulative_simpson_nodes(panel, step))
            return (profit[i] + _definite_integral(grown * panel, step)) / (
                capitalization[i] + _definite_integral(grown, step)
            )

        return times, ratio, _rounding(ratio), threshold

    return _first_order_argmax(scenario, rotation_grid, curve)


def rroe_argmax(
    scenario: GrowthScenario,
    leverage: float,
    market_rate: float,
    rotation_grid: Sequence[float],
    *,
    intervals: int = DEFAULT_INTERVALS,
) -> float:
    """Rotation length maximizing the return rate on equity, between the
    shortest and the longest rotation of the grid.

    The equity return ``(1 + L) * rroc - L * u`` is a positive affine
    transform of the capital return whenever leverage exceeds -1, so its
    maximizer is the capital return's own, ``r(tau*) = rroc(tau*)``, the
    same for every market rate and leverage; at ``L = 0`` it is the
    capital return's maximizer. The grid bounds the search range, not the
    candidates. A flat capital return (a constant path) gives the
    shortest rotation of the grid. The search is one pass over the
    longest rotation and values no rotation; the latest search is
    remembered, unless the scenario cannot be hashed (a path of a
    non-frozen dataclass, say).

    Raises:
        InvalidLeverageError: leverage <= -1, NaN or infinite (at
            exactly -1 the equity return is the market rate at every
            rotation length, so the maximizer is undefined), or a market
            rate NaN or infinite.
        DomainError: empty grid, or a grid point not finite and > 0.
        DegenerateCapitalError: from the pass over the longest rotation.
    """
    _require_leverage(leverage, market_rate)
    if leverage == -1.0:
        raise InvalidLeverageError(
            "equity-return maximizer needs leverage strictly above -1"
        )
    return _rroc_argmax(scenario, tuple(map(float, rotation_grid)), intervals)


def _npv_argmax(
    scenario: GrowthScenario, discount_rate: float, rotation_grid, intervals: int
) -> float:
    """``optimize._first_order_argmax`` of the present value ``N``, which
    solves ``N * (1 - exp(-d*tau)) = K0 * (exp(R - d*tau) - 1)`` with
    ``R = tau * avg`` the cumulative return. Its slope has the sign of
    ``r(tau) - d * (1 - exp(-R)) / (1 - exp(-d*tau))``: the Faustmann
    rotation, which moves with ``d``. The curve is ``N / K0``, built from
    ``g = R - d*tau``; ``g`` carries the rounding of ``R``, which grows
    with ``R``, and ``N / K0`` carries it times ``exp(g) / (1 - exp(-d*tau))``.
    Returns the rotation length alone."""
    _require_discount(discount_rate)

    def curve(longest: GrowthScenario, grid: np.ndarray):
        times, returns = _cycle_returns(longest, tuple(grid), intervals)
        avg = returns / times
        gain, factor = times * (avg - discount_rate), -np.expm1(-discount_rate * times)
        rounding = _rounding(times * avg) * np.exp(gain) / factor

        def threshold(i, t, step, panel):
            cumulative = returns[i] + _definite_integral(panel, step)
            return discount_rate * -np.expm1(-cumulative) / -np.expm1(-discount_rate * t)

        return times, np.expm1(gain) / factor, rounding, threshold

    return _first_order_argmax(scenario, rotation_grid, curve)


def _irr_argmax(scenario: GrowthScenario, rotation_grid, intervals: int) -> float:
    """``optimize._first_order_argmax`` of the IRR, the time-average rate
    ``R / tau``: its slope ``(r(tau) - irr(tau)) / tau`` vanishes where the
    spot rate falls to it. Returns the rotation length alone."""

    def curve(longest: GrowthScenario, grid: np.ndarray):
        times, returns = _cycle_returns(longest, tuple(grid), intervals)
        avg = returns / times

        def threshold(i, t, step, panel):
            return (returns[i] + _definite_integral(panel, step)) / t

        return times, avg, _rounding(avg), threshold

    return _first_order_argmax(scenario, rotation_grid, curve)
