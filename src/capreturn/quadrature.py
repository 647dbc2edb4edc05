"""Composite Simpson quadrature on grids cut at the integrand's kinks.

Every integral in the package runs on a grid from :func:`_grid`: the span
is cut at given points (path kinks, events, density knots), and each
piece between two cuts gets uniform nodes, an even count of at least 2
intervals in proportion to its share of the span, so no step exceeds
that of a uniform grid over the whole span. Neighbouring pieces
share the node at their cut, so panel ``k`` covers nodes ``2k .. 2k+2``
and no panel straddles a cut. :func:`_definite_integral` integrates over
the grid and :func:`cumulative_simpson_nodes` gives the running integral
at every node.

Within a piece the error falls as ``h**4`` with the integrand's fourth
derivative, far inside the package-wide 1e-8 target for the smooth paths
at the default 4096 intervals; piecewise-linear rates integrate exactly
up to rounding. A kink inside a panel would cost ``h**2``, hence the cuts.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_INTERVALS = 4096


def _grid(start: float, end: float, cuts, intervals: int):
    """Simpson nodes over ``[start, end]``, cut at every point of ``cuts``
    strictly inside it; ``end`` must exceed ``start``. A point given twice
    gets a panel of zero width there, across which the integrand may jump.

    Returns ``(nodes, steps)``: the node times and the step of each
    panel, a single float when the span is one piece.
    """
    cuts = np.asarray(cuts, dtype=float)
    inner = cuts[(cuts > start) & (cuts < end)]
    if not inner.size:
        # One piece, as on every smooth path. The general build below gives
        # the same nodes, but its small-array work made `sweep` (eight
        # one-piece grids per row) about a third slower end to end.
        n = max(2, math.ceil(intervals))
        n += n % 2
        return np.linspace(start, end, n + 1), (end - start) / n
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


def _definite_integral(values: np.ndarray, steps) -> float:
    """Integral over the whole grid of the samples ``values`` at its nodes."""
    if np.ndim(steps) == 0:
        # One uniform piece: the classic composite sum, whose rounding
        # keeps the results on smooth paths as they were.
        odd, even = np.sum(values[1:-1:2]), np.sum(values[2:-1:2])
        return float(steps / 3.0 * (values[0] + values[-1] + 4.0 * odd + 2.0 * even))
    y0, y1, y2 = values[:-2:2], values[1:-1:2], values[2::2]
    return float(np.sum(steps / 3.0 * (y0 + 4.0 * y1 + y2)))


def cumulative_simpson_nodes(values: np.ndarray, steps) -> np.ndarray:
    """Running integral from the first node to every node.

    Panels use the standard Simpson weight; the value at the interior
    (odd) node of each panel integrates the same quadratic over its
    first half, so every node gets fourth-order accuracy.
    """
    y0, y1, y2 = values[:-2:2], values[1:-1:2], values[2::2]
    half = steps / 12.0 * (5.0 * y0 + 8.0 * y1 - y2)
    full = steps / 3.0 * (y0 + 4.0 * y1 + y2)
    out = np.empty_like(values, dtype=float)
    at_even = np.concatenate(([0.0], np.cumsum(full)))
    out[::2] = at_even
    out[1::2] = at_even[:-1] + half
    return out
