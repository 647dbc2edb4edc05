"""Return on equity under leverage and the loan-adjusted break-even
discount rate.

The leverage ratio is capital over equity minus one: zero when fully
self-financed, positive when borrowing, negative when part of the
equity is lent out instead, down to -1 when every unit of equity sits
in interest-bearing instruments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .errors import (
    CapReturnError,
    InvalidLeverageError,
    WipedOutEquityError,
)
from .growth import GrowthScenario, _cycle_average, _exp, _segments, rroc, with_rotation
from .optimize import _bracketed_root
from .quadrature import DEFAULT_INTERVALS, cumulative_simpson_nodes


def _require_leverage(leverage: float) -> None:
    """Raise InvalidLeverageError for a leverage ratio below -1 (no more
    than all of the equity can be lent out), NaN or infinite."""
    if not leverage >= -1.0:
        raise InvalidLeverageError("leverage ratio cannot be below -1")
    if leverage == math.inf:
        raise InvalidLeverageError("leverage ratio must be finite")


@dataclass(frozen=True)
class LeverageSpec:
    """Leverage ratio, market interest rate, and optional explicit equity."""

    leverage: float
    market_rate: float = 0.0
    equity: float | None = None

    def __post_init__(self):
        _require_leverage(self.leverage)
        if not math.isfinite(self.market_rate):
            raise ValueError("market_rate must be finite")
        if self.equity is not None and not self.equity > 0.0:
            raise ValueError("equity must be > 0")
        if self.equity == math.inf:
            raise ValueError("equity must be finite")


def rroe(return_on_capital: float, leverage: float, market_rate: float) -> float:
    """Return rate on equity, per year.

    ``s + L * (s - u)``: borrowing amplifies the spread of the capital
    return ``s`` over the market rate ``u``; at leverage -1 everything
    is lent and the result is the market rate itself.
    """
    _require_leverage(leverage)
    if leverage == -1.0:
        return market_rate
    return return_on_capital + leverage * (return_on_capital - market_rate)


def leveraged_discount_rate(
    scenario: GrowthScenario,
    rotation_length: float,
    leverage: float,
    market_rate: float,
    *,
    intervals: int = DEFAULT_INTERVALS,
) -> float:
    """Discount rate zeroing the initial value of a leveraged rotation.

    The loan and its compound interest are repaid in one payment at the
    rotation end; the rate returned makes the discounted equity payoff
    equal the initial equity. It is not internal to the production
    process — it moves with the market rate.

    Raises:
        WipedOutEquityError: the terminal equity payoff is nonpositive
            (loan interest exceeds what the rotation produced), so no
            break-even rate exists.
        DegenerateCapitalError: a growth factor is beyond float range.
    """
    _require_leverage(leverage)
    tau = rotation_length
    avg = _cycle_average(scenario, tau, intervals)
    inner = 1.0 + leverage * (1.0 - _exp(-tau * (avg - market_rate)))
    if inner <= 0.0:
        raise WipedOutEquityError(
            "leveraged terminal value is nonpositive; equity is wiped out"
        )
    rate = avg + math.log(inner) / tau
    check = (
        (1.0 + leverage) * _exp(avg * tau)
        - leverage * _exp(market_rate * tau)
    ) * _exp(-rate * tau) - 1.0
    if abs(check) > 1e-9:
        raise CapReturnError(
            f"break-even rate failed its zero-value check (residual {check:.3e})"
        )
    return rate


@functools.lru_cache(maxsize=1)
def _rroc_argmax(
    scenario: GrowthScenario, rotation_grid: tuple[float, ...], intervals: int
) -> tuple[float, float]:
    """Rotation length maximizing the capital return between the
    shortest and the longest rotation of the grid, and the capital
    return there.

    One Simpson pass over the longest rotation, cut at every grid point,
    gives the whole capital-return curve: the running integrals of
    ``K * r`` and of ``K`` at a node are those of the rotation ending
    there, since a shorter rotation only drops the events at or after
    its end. The best node, the shortest of equals, is bracketed by its
    nearest distinct neighbours. As
    ``d rroc / d tau = K(tau) / C(tau) * (r(tau) - rroc(tau))``, with
    ``C`` the integral of ``K``, the maximum is where the spot rate falls
    to the capital return; that root is solved for, with every
    ``rroc(tau)`` evaluated on its own rotation. Without a sign change in
    the bracket (a maximum at an end of the range, a flat path) the end
    with the larger capital return wins. The returned value is
    ``rroc(with_rotation(scenario, tau))``.

    The one entry remembers the latest search, so the equity-return
    maximizers of one scenario at several market rates or leverages
    share it. Arguments must be hashable; they compare by value.

    Raises:
        ValueError: empty grid, or a grid point that is not positive.
        DegenerateCapitalError: from the pass over the longest rotation.
    """
    grid = np.sort(rotation_grid)  # NaN last
    if not grid.size:
        raise ValueError("grid must not be empty")
    first, last = float(grid[0]), float(grid[-1])
    if not first > 0.0:
        raise ValueError("rotation lengths must be > 0")
    times, steps, rates, capital = _segments(with_rotation(scenario, last), grid, intervals)
    inside = times >= first
    taus = times[inside]
    curve = (
        cumulative_simpson_nodes(capital * rates, steps)[inside]
        / cumulative_simpson_nodes(capital, steps)[inside]
    )
    best = taus[np.argmax(curve)]  # nodes ascend, so ties go to the shorter
    below, above = taus[taus < best], taus[taus > best]
    lo = float(below[-1]) if below.size else float(best)
    hi = float(above[0]) if above.size else float(best)

    values = {}

    def rate_gap(tau: float) -> float:
        if tau not in values:
            values[tau] = rroc(with_rotation(scenario, tau), intervals=intervals)
        return scenario.path.evaluate(tau) - values[tau]

    root = _bracketed_root(rate_gap, lo, hi, tol=1e-9 * max(1.0, hi))
    tau = root if root is not None else max((lo, hi), key=lambda t: (values[t], -t))
    return tau, values[tau]


def _rroc_optimum(
    scenario: GrowthScenario, rotation_grid: Sequence[float], intervals: int
) -> tuple[float, float]:
    """``_rroc_argmax`` of any grid sequence; a scenario that cannot be
    hashed (a path of a non-frozen dataclass, say) is searched afresh."""
    grid = tuple(map(float, rotation_grid))
    try:
        hash(scenario)
    except TypeError:
        return _rroc_argmax.__wrapped__(scenario, grid, intervals)
    return _rroc_argmax(scenario, grid, intervals)


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
    maximizer is the capital return's own: the rotation where the spot
    rate falls to the capital return, ``r(tau*) = rroc(tau*)``. One pass
    over the longest rotation gives the capital return at every node;
    the best node brackets that root. The grid bounds the search range,
    it does not limit the candidates. The search is made once per
    scenario, grid and interval count, and the latest call shares it
    with the next: the result is exactly the same for every market rate
    and every leverage above -1. A scenario that cannot be hashed (a
    path of a non-frozen dataclass, say) is searched afresh on every
    call.

    Raises:
        InvalidLeverageError: leverage <= -1, NaN or infinite (at
            exactly -1 the equity return is the market rate at every
            rotation length, so the maximizer is undefined).
        ValueError: empty grid.
    """
    _require_leverage(leverage)
    if leverage == -1.0:
        raise InvalidLeverageError(
            "equity-return maximizer needs leverage strictly above -1"
        )
    return _rroc_optimum(scenario, rotation_grid, intervals)[0]
