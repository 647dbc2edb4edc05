"""Composite Simpson quadrature on grids cut at the integrand's kinks.

Every integral in the package runs on a grid from :func:`_grid`: the span
is cut at given points (path kinks, events, density knots), and each
piece between two cuts gets uniform nodes, an even count of at least 2
intervals in proportion to its share of the span, so no step exceeds
that of a uniform grid over the whole span. Neighbouring pieces
share the node at their cut, so panel ``k`` covers nodes ``2k .. 2k+2``
and no panel straddles a cut. A span with no cut inside is one piece,
whose nodes are those of ``np.linspace`` bit for bit, built in place
from ``np.arange`` with linspace's own arithmetic, once per
``(start, end, n)``: the latest such array is shared, and read-only.
:func:`_definite_integral` integrates over the grid and
:func:`cumulative_simpson_nodes` gives the running integral at every
node. Where finite samples overflow a sum whose value fits in a float,
the sum is taken again over the samples scaled to magnitude at most 1.

Within a piece the error falls as ``h**4`` with the integrand's fourth
derivative, far inside the package-wide 1e-8 target for the smooth paths
at the default 4096 intervals; piecewise-linear rates integrate exactly
up to rounding. A kink inside a panel would cost ``h**2``, hence the cuts.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np

from .errors import DomainError

DEFAULT_INTERVALS = 4096

#: Largest accepted ``intervals``; it sizes every node array.
MAX_INTERVALS = 2**20


def _grid(start: float, end: float, cuts, intervals: int):
    """Simpson nodes over ``[start, end]``, cut at every point of ``cuts``
    strictly inside it; ``end`` must exceed ``start``. A point given twice
    gets a panel of zero width there, across which the integrand may jump.
    ``intervals`` below 2 counts as 2; a value that is not a real number
    (a bool included), NaN or above ``MAX_INTERVALS`` is a DomainError,
    checked before it sizes any array.

    Returns ``(nodes, steps)``: the node times and the step of each
    panel, a single float when the span is one piece. A one-piece grid's
    nodes come from :func:`_uniform_nodes`, shared and read-only.
    """
    if isinstance(intervals, bool) or not isinstance(intervals, numbers.Real):
        raise DomainError(f"quadrature intervals must be a number: {intervals!r}")
    if not intervals <= MAX_INTERVALS:
        raise DomainError(f"quadrature intervals must be at most {MAX_INTERVALS}: {intervals!r}")
    intervals = max(intervals, 2)  # so that -inf counts as 2 too
    inner = np.asarray(cuts, dtype=float)
    if inner.size:
        inner = inner[(inner > start) & (inner < end)]
    if not inner.size:  # one piece, as on every smooth path
        n = math.ceil(intervals)
        n += n % 2
        return _uniform_nodes(start, end, n), (end - start) / n
    edges = np.sort(np.concatenate(([start, end], inner)))
    widths = np.diff(edges)
    counts = np.ceil(intervals * (widths / (end - start))).astype(np.int64)
    counts += counts & 1
    counts = np.maximum(2, counts)
    steps = widths / counts
    # Node j of a piece sits at a + j*h, as in linspace, so each cut is a node.
    nodes = np.arange(np.sum(counts) + 1, dtype=float)
    nodes[:-1] -= np.repeat(np.cumsum(counts) - counts, counts)
    nodes[:-1] *= np.repeat(steps, counts)
    nodes[:-1] += np.repeat(edges[:-1], counts)
    nodes[-1] = end
    return nodes, np.repeat(steps, counts // 2)


@lru_cache(maxsize=1)
def _uniform_nodes(start: float, end: float, n: int) -> np.ndarray:
    """The ``n + 1`` nodes of ``np.linspace(start, end, n + 1)`` bit for
    bit, built in place with numpy's own linspace arithmetic at a fraction
    of its cost. Every pass over one rotation asks for the same nodes,
    eight times per `sweep` row, so the latest array is kept rather than
    built again; it is read-only because all those passes, in any
    thread, share it."""
    step = (end - start) / n
    nodes = np.arange(n + 1, dtype=float)
    if step:
        nodes *= step
    else:  # a span of a few denormals, which linspace scales as a whole
        nodes /= n
        nodes *= end - start
    nodes += start
    nodes[-1] = end
    nodes.flags.writeable = False
    return nodes


def _definite_integral(values: np.ndarray, steps) -> float:
    """Integral over the whole grid of the samples ``values`` at its nodes.

    It is not finite only where a sample is not, or where the integral
    itself is beyond float range: a sum that overflows on the way is taken
    again over the samples scaled to magnitude at most 1.
    """
    total = _simpson_sum(values, steps)
    if math.isfinite(total) or not np.isfinite(values).all():
        return total
    scale = float(np.abs(values).max())
    return _simpson_sum(values / scale, steps) * scale


def _simpson_sum(values: np.ndarray, steps) -> float:
    if np.ndim(steps) == 0:
        # One uniform piece: the classic composite sum, whose rounding
        # keeps the results on smooth paths as they were.
        odd, even = values[1:-1:2].sum(), values[2:-1:2].sum()
        return float(steps / 3.0 * (values[0] + values[-1] + 4.0 * odd + 2.0 * even))
    y0, y1, y2 = values[:-2:2], values[1:-1:2], values[2::2]
    return float((steps / 3.0 * (y0 + 4.0 * y1 + y2)).sum())


def cumulative_simpson_nodes(values: np.ndarray, steps) -> np.ndarray:
    """Running integral from the first node to every node.

    Panels use the standard Simpson weight; the value at the interior
    (odd) node of each panel integrates the same quadratic over its
    first half, so every node gets fourth-order accuracy. As in
    :func:`_definite_integral`, a node whose sum overflows on the way
    while every sample is finite is taken again over scaled samples.
    """
    out = _running_sums(values, steps)
    finite = np.isfinite(out)
    if finite.all() or not np.isfinite(values).all():
        return out
    scale = np.abs(values).max()
    out[~finite] = _running_sums(values / scale, steps)[~finite] * scale
    return out


def _running_sums(values: np.ndarray, steps) -> np.ndarray:
    # steps/12 * (5*y0 + 8*y1 - y2) and steps/3 * (y0 + 4*y1 + y2), each
    # built in one buffer with the same operations per element.
    y0, y1, y2 = values[:-2:2], values[1:-1:2], values[2::2]
    half = np.multiply(y0, 5.0)
    full = np.multiply(y1, 8.0)
    half += full
    half -= y2
    half *= steps / 12.0
    np.multiply(y1, 4.0, out=full)
    full += y0
    full += y2
    full *= steps / 3.0
    out = np.empty_like(values, dtype=float)
    out[0] = 0.0
    np.cumsum(full, out=out[2::2])
    np.add(out[:-2:2], half, out=out[1::2])
    return out
