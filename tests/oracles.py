"""Independent reference computations the tests check the library against.

Everything here deliberately avoids the library's own quadrature and
root-finding: integrals use fine-grid midpoint sums, capital
trajectories use explicit exponential stepping, present values use
explicit rotation-by-rotation discounting, and roots come from
sign scans plus bisection.
"""

from __future__ import annotations

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
