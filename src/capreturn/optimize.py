"""Grid scan with golden-section refinement for 1-D maxima, and a
bracketed root finder."""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section_max(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> float:
    """Argmax of a unimodal function on ``[a, b]`` to within ``tol``.

    Exact ties move the right bound, so the result leans toward the
    smaller argument.
    """
    a, b = min(a, b), max(a, b)
    width = b - a
    if width <= tol:
        return (a + b) / 2.0
    steps = int(math.ceil(math.log(tol / width) / math.log(_INV_PHI)))
    c = a + _INV_PHI_SQ * width
    d = a + _INV_PHI * width
    yc, yd = f(c), f(d)
    for _ in range(max(steps - 1, 0)):
        if yc >= yd:
            b, d, yd = d, c, yc
            width *= _INV_PHI
            c = a + _INV_PHI_SQ * width
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            width *= _INV_PHI
            d = a + _INV_PHI * width
            yd = f(d)
    return (a + d) / 2.0 if yc >= yd else (c + b) / 2.0


def refine_argmax(
    f: Callable[[float], float], grid: Sequence[float]
) -> tuple[float, float]:
    """Best argument over a grid, refined between its neighbors.

    Scans the grid, brackets the best point with its neighbors, and
    sharpens by golden-section search. Returns ``(argmax, value)``;
    grid ties resolve to the smallest argument.

    Raises:
        ValueError: if the grid is empty.
    """
    pts = list(grid)
    if not pts:
        raise ValueError("grid must not be empty")
    values = [f(x) for x in pts]
    best = max(range(len(pts)), key=lambda i: (values[i], -pts[i]))
    if len(pts) == 1:
        return pts[0], values[0]
    lo = pts[max(best - 1, 0)]
    hi = pts[min(best + 1, len(pts) - 1)]
    x = golden_section_max(f, lo, hi, tol=1e-9 * max(1.0, abs(lo), abs(hi)))
    y = f(x)
    if y > values[best]:
        return x, y
    return pts[best], values[best]


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
