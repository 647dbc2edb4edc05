"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the library's own quadrature and
root-finding: integrals use fine-grid midpoint sums, capital
trajectories use explicit exponential stepping, present values use
explicit rotation-by-rotation discounting, roots come from sign scans
plus bisection, and maxima from a grid scan refined by golden section.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np


def midpoint_integral(f, a: float, b: float, n: int = 400_000) -> float:
    """Midpoint-rule integral of a vectorized function."""
    if b == a:
        return 0.0
    h = (b - a) / n
    mids = a + (np.arange(n) + 0.5) * h
    return float(np.sum(f(mids)) * h)


def capital_by_stepping(path, initial, events, t: float, steps_per_unit: int = 20_000) -> float:
    """Capital at time t by exponential midpoint stepping across events."""
    cuts = [0.0] + [e.time for e in events if e.time <= t] + [t]
    jumps = {e.time: e.amount for e in events}
    capital = initial
    for a, b in zip(cuts, cuts[1:]):
        if a in jumps:
            capital += jumps[a]
        if b > a:
            n = max(64, int((b - a) * steps_per_unit))
            h = (b - a) / n
            mids = a + (np.arange(n) + 0.5) * h
            capital *= float(np.exp(np.sum(path.evaluate(mids)) * h))
    return capital


def linear_rate_integral(knots, a: float, b: float) -> float:
    """Exact integral over ``[a, b]`` of the piecewise-linear rate
    through ``knots``: the trapezoid rule on the knots and both ends."""
    times, rates = (np.array(column, dtype=float) for column in zip(*knots))
    inside = (times > a) & (times < b)
    xs = np.concatenate(([a], times[inside], [b]))
    ys = np.interp(xs, times, rates)
    return float(np.sum(np.diff(xs) * (ys[:-1] + ys[1:]) / 2.0))


def capital_by_spans(span, initial, events, t: float) -> float:
    """Capital at time t (post-jump at an event time) by compounding
    ``exp(span(a, b))`` between events, where ``span`` is an exact
    integral of the rate."""
    capital, previous = initial, 0.0
    for event in events:
        if event.time > t:
            break
        capital = capital * np.exp(span(previous, event.time)) + event.amount
        previous = event.time
    return float(capital * np.exp(span(previous, t)))


def npv_rotation_series(
    initial: float, avg_rate: float, tau: float, d: float, terms: int = 200
) -> float:
    """Present value by explicitly summing discounted rotation cash flows.

    Pays the initial capital up front; each rotation end receives the
    grown capital and pays the next rotation's starting capital.
    """
    n = np.arange(1, terms + 1)
    per_rotation = initial * np.exp(tau * avg_rate) - initial
    return float(-initial + np.sum(per_rotation * np.exp(-d * tau * n)))


def bisect_root(f, lo: float, hi: float, tol: float = 1e-14, max_iter: int = 200) -> float:
    """Root of a scalar function by bisection; endpoints must bracket."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("endpoints do not bracket a root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or (hi - lo) < tol:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def real_roots_by_scan(f, lo: float, hi: float, n: int = 20_000) -> list[float]:
    """Real roots of a vectorized scalar function by sign-change scan
    plus bisection on each bracketing cell."""
    xs = np.linspace(lo, hi, n + 1)
    ys = np.asarray(f(xs))
    roots = []
    for i in np.nonzero(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0)[0]:
        roots.append(bisect_root(lambda x: float(f(np.asarray(x))), float(xs[i]), float(xs[i + 1])))
    return roots


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
