"""Bit identity of the rotation passes with their plain formulas.

The one-piece grid, the clip into a path's domain and the Simpson sums
skip work that cannot change a bit: each test here compares them, under
``np.array_equal`` or ``==``, with the straightforward code they replace
(``np.linspace``, an unconditional ``np.clip``, the unfused Simpson
formulas), which is copied below as the reference.
"""

import math

import numpy as np
import pytest

from capreturn import ConstantPath, ReversedPath, SinSquaredPath, TabulatedPath
from capreturn.paths import _DOMAIN_SLACK
from capreturn.quadrature import _definite_integral, _grid, cumulative_simpson_nodes

KNOTS = ((0.0, 0.08), (3.3, 0.01), (7.77, 0.06), (12.1, -0.02), (20.0, 0.03))
# With shape 0 the rate near the domain ends is about (t - end)**2, so a
# time moved onto a bound by the clip shows in the rate.
HUMP = SinSquaredPath(mean_rate=0.05, shape=0.0, full_cycle=60.0)
PATHS = {
    "constant": ConstantPath(0.03),
    "sin_squared": HUMP,
    "tabulated": TabulatedPath(KNOTS),
    "reversed": ReversedPath(HUMP, 45.0),
    "reversed-tabulated": ReversedPath(TabulatedPath(KNOTS), 20.0),
    "reversed-twice": ReversedPath(ReversedPath(HUMP, 45.0), 30.0),
    # 1 - (1 - 0.3) rounds to 0.30000000000000004, past the inner domain.
    "reversed-rounding": ReversedPath(SinSquaredPath(0.05, 0.0, 0.3), 1.0),
}


# -- the reference: the plain code ---------------------------------------


def linspace_grid(start, end, intervals):
    n = max(2, math.ceil(intervals))
    n += n % 2
    return np.linspace(start, end, n + 1), (end - start) / n


def plain_definite_integral(values, steps):
    if np.ndim(steps) == 0:
        odd, even = np.sum(values[1:-1:2]), np.sum(values[2:-1:2])
        return float(steps / 3.0 * (values[0] + values[-1] + 4.0 * odd + 2.0 * even))
    y0, y1, y2 = values[:-2:2], values[1:-1:2], values[2::2]
    return float(np.sum(steps / 3.0 * (y0 + 4.0 * y1 + y2)))


def plain_cumulative(values, steps):
    y0, y1, y2 = values[:-2:2], values[1:-1:2], values[2::2]
    half = steps / 12.0 * (5.0 * y0 + 8.0 * y1 - y2)
    full = steps / 3.0 * (y0 + 4.0 * y1 + y2)
    out = np.empty_like(values, dtype=float)
    at_even = np.concatenate(([0.0], np.cumsum(full)))
    out[::2] = at_even
    out[1::2] = at_even[:-1] + half
    return out


def plain_rates(path, ts):
    """Clip into the domain, then the path's formula; a reversed path
    clips again for its inner path."""
    lo, hi = path.domain()
    ts = np.clip(ts, lo, hi)
    if isinstance(path, ReversedPath):
        return plain_rates(path.inner, path.horizon - ts)
    if isinstance(path, ConstantPath):
        return np.full_like(ts, path.rate, dtype=float)
    if isinstance(path, SinSquaredPath):
        hump = np.sin(np.pi * ts / path.full_cycle) ** 2
        return path.mean_rate * (path.shape + 2.0 * (1.0 - path.shape) * hump)
    return np.interp(ts, *path._knot_arrays)


def bounds(path):
    """The path's domain, with (-3, 7) standing in for an infinite one."""
    lo, hi = path.domain()
    return (lo, hi) if math.isfinite(lo) else (-3.0, 7.0)


# -- the one-piece grid ------------------------------------------------


@pytest.mark.parametrize(
    "start, end, intervals",
    [
        (0.0, 45.88, 4096),
        (-3.5, 2.25, 4096),
        (-17.0, -0.3, 4096),
        (0.0, 1e-300, 4096),
        (-1e-300, 0.0, 4096),
        (0.0, 1e300, 4096),
        (-1e300, 1e300, 4096),
        (0.0, 1e-320, 4096),  # the step is 0: linspace scales the span
        (0.0, 7.3, 4095),
        (0.0, 7.3, 1001.5),
        (0.0, 7.3, 2),
        (0.0, 7.3, 1),
        (0.0, 7.3, 65536),
    ],
)
def test_one_piece_grid_equals_linspace(start, end, intervals):
    nodes, step = _grid(start, end, (), intervals)
    expected, expected_step = linspace_grid(start, end, intervals)
    assert np.array_equal(nodes, expected)
    assert step == expected_step


@pytest.mark.parametrize("cuts", [np.array([]), [-1.0, 0.0, 7.3, 9.0]], ids=["empty", "outside"])
def test_cuts_outside_the_span_give_the_one_piece_grid(cuts):
    nodes, step = _grid(0.0, 7.3, cuts, 4096)
    expected, expected_step = linspace_grid(0.0, 7.3, 4096)
    assert np.array_equal(nodes, expected)
    assert step == expected_step


# -- the Simpson sums -------------------------------------------------------

GRIDS = {
    "one-piece": lambda: _grid(0.0, 37.5, (), 4096),
    "one-piece-short": lambda: _grid(0.0, 1.0, (), 2),
    "pieces": lambda: _grid(0.0, 20.0, (3.3, 7.77, 12.1), 4096),
    # An event time given twice gives a panel of zero width there.
    "zero-width": lambda: _grid(0.0, 10.0, (2.0, 2.0, 5.5, 8.25, 8.25), 512),
}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_simpson_sums_equal_the_plain_formulas(grid, seed):
    nodes, steps = GRIDS[grid]()
    rng = np.random.default_rng(seed)
    # Magnitudes from 1e-30 to 1e30 and both signs, so rounding shows.
    values = rng.normal(size=nodes.size) * 10.0 ** rng.integers(-30, 30, size=nodes.size)
    assert _definite_integral(values, steps) == plain_definite_integral(values, steps)
    assert np.array_equal(cumulative_simpson_nodes(values, steps), plain_cumulative(values, steps))


@pytest.mark.parametrize("grid", GRIDS)
def test_simpson_sums_of_rates_equal_the_plain_formulas(grid):
    nodes, steps = GRIDS[grid]()
    values = plain_rates(PATHS["tabulated"], nodes)
    assert _definite_integral(values, steps) == plain_definite_integral(values, steps)
    assert np.array_equal(cumulative_simpson_nodes(values, steps), plain_cumulative(values, steps))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("grid", GRIDS)
def test_non_finite_samples_give_non_finite_sums(grid):
    nodes, steps = GRIDS[grid]()
    values = np.full(nodes.size, 0.5)
    values[nodes.size // 2] = np.inf
    assert not math.isfinite(_definite_integral(values, steps))
    assert not np.isfinite(cumulative_simpson_nodes(values, steps)).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid", GRIDS)
def test_sums_that_overflow_on_the_way_are_scaled(grid):
    nodes, steps = GRIDS[grid]()
    span = nodes[-1] - nodes[0]
    values = np.full(nodes.size, 1e308 / span)  # integral 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        assert _definite_integral(values, steps) == pytest.approx(1e308, rel=1e-12)
        running = cumulative_simpson_nodes(values, steps)
    assert np.isfinite(running).all()
    assert running == pytest.approx(values[0] * (nodes - nodes[0]), rel=1e-12)


# -- rates at the nodes of a grid and at any times ---------------------------


def grids_over(path):
    """Grids whose end nodes lie inside the domain, on its bounds, and
    outside it by half the slack the domain checks allow, each in both
    orders (a reversed path reads its inner path's grid backwards)."""
    lo, hi = bounds(path)
    slack = 0.5 * _DOMAIN_SLACK * max(1.0, abs(lo), abs(hi))
    width = hi - lo
    spans = [(lo + 0.2 * width, hi - 0.3 * width), (lo, hi), (lo - slack, hi + slack)]
    for start, end in spans:
        nodes, _ = _grid(start, end, path._kinks(), 1024)
        yield nodes
        yield nodes[::-1]


@pytest.mark.parametrize("name", PATHS)
def test_grid_rates_equal_clip_then_rates(name):
    path = PATHS[name]
    for nodes in grids_over(path):
        assert np.array_equal(path._clipped_rates(nodes), plain_rates(path, nodes))


def scattered_times(path, seed):
    """Times in no order: the grids above shuffled, with the domain's
    bounds and the times half a slack beyond them mixed in, in 1-D and 2-D."""
    rng = np.random.default_rng(seed)
    ts = rng.permutation(np.concatenate(list(grids_over(path))))
    yield ts
    yield ts[: ts.size // 4 * 4].reshape(-1, 4)


@pytest.mark.parametrize("name", PATHS)
@pytest.mark.parametrize("seed", [0, 1])
def test_evaluate_equals_clip_then_rates_in_any_order(name, seed):
    path = PATHS[name]
    for ts in scattered_times(path, seed):
        out = path.evaluate(ts)
        assert out.shape == ts.shape
        assert np.array_equal(out, plain_rates(path, ts))


@pytest.mark.parametrize("name", PATHS)
def test_evaluate_one_time_and_no_time(name):
    path = PATHS[name]
    lo, hi = bounds(path)
    for t in (lo, 0.5 * (lo + hi), hi):
        for given in (t, np.float64(t), np.array(t)):
            out = path.evaluate(given)
            assert isinstance(out, float)
            assert out == float(plain_rates(path, np.asarray(t)))
    for empty in (np.array([]), np.empty((0, 3))):
        out = path.evaluate(empty)
        assert out.shape == empty.shape
