"""The one rotation-length search behind every ``optimize`` objective:
the optimum is where the spot rate falls to the objective's threshold,
bracketed by the best node of one pass over the longest rotation."""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

import numpy as np

from .growth import GrowthScenario, with_rotation

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
        [GrowthScenario, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]
    ],
    objective: Callable[[GrowthScenario], tuple[float, float]],
) -> tuple[float, float]:
    """Rotation length maximizing an objective between the shortest and
    the longest rotation of the grid, and the objective there.

    ``curve(longest, grid)`` gives the nodes of one pass over the longest
    rotation, cut at every grid point, and at each a value (free of
    initial capital) that orders the rotations ending there as the
    objective does, and the rounding of that value; 0/0 and overflow are
    let pass. ``objective(rotation)`` gives the objective and a threshold
    whose gap to the spot rate has the sign of the objective's slope. The
    best node, the shortest of equals, and its nearest distinct
    neighbours bracket the root of that gap; without a sign change the
    better end wins. A curve flat to its rounding, whose spread is within
    the largest rounding of a node, gives the shortest rotation.

    Raises:
        ValueError: empty grid, or a grid point that is not positive.
    """
    grid = np.sort(rotation_grid)  # NaN last
    if not grid.size:
        raise ValueError("grid must not be empty")
    first, last = float(grid[0]), float(grid[-1])
    if not first > 0.0:
        raise ValueError("rotation lengths must be > 0")
    with np.errstate(invalid="ignore", over="ignore"):
        times, values, rounding = curve(with_rotation(scenario, last), grid)
    inside = times >= first
    taus, values = times[inside], values[inside]
    at = functools.cache(lambda tau: objective(with_rotation(scenario, tau)))
    top = np.abs(values).max()  # NaN or inf is no flat curve
    if top < math.inf and np.ptp(values) <= rounding[inside].max():
        return first, at(first)[0]
    best = taus[np.argmax(values)]  # nodes ascend, so ties go to the shorter
    below, above = taus[taus < best], taus[taus > best]
    lo = float(below[-1]) if below.size else float(best)
    hi = float(above[0]) if above.size else float(best)
    gap = lambda t: scenario.path.evaluate(t) - at(t)[1]  # has the slope's sign
    root = _bracketed_root(gap, lo, hi, tol=1e-9 * max(1.0, hi))
    tau = root if root is not None else max((lo, hi), key=lambda t: (at(t)[0], -t))
    return tau, at(tau)[0]


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
