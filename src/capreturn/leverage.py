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

from .errors import (
    CapReturnError,
    InvalidLeverageError,
    WipedOutEquityError,
)
from .growth import GrowthScenario, _cycle_average, _exp, rroc, with_rotation
from .optimize import refine_argmax
from .quadrature import DEFAULT_INTERVALS


def _require_leverage(leverage: float) -> None:
    """Raise InvalidLeverageError for a leverage ratio below -1 (no more
    than all of the equity can be lent out) or NaN."""
    if not leverage >= -1.0:
        raise InvalidLeverageError("leverage ratio cannot be below -1")


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
) -> float:
    """Rotation length maximizing the capital return over the grid,
    refined by golden section.

    The one entry remembers the latest search, so the equity-return
    maximizers of one scenario at several market rates or leverages
    share it. Arguments must be hashable; they compare by value.
    """
    best_tau, _ = refine_argmax(
        lambda tau: rroc(with_rotation(scenario, tau), intervals=intervals),
        rotation_grid,
    )
    return best_tau


def rroe_argmax(
    scenario: GrowthScenario,
    leverage: float,
    market_rate: float,
    rotation_grid: Sequence[float],
    *,
    intervals: int = DEFAULT_INTERVALS,
) -> float:
    """Rotation length maximizing the return rate on equity.

    The equity return ``(1 + L) * rroc - L * u`` is a positive affine
    transform of the capital return whenever leverage exceeds -1, so its
    maximizer is the capital return's own. This returns the result of
    one capital-return search (grid scan, then golden section) per
    scenario, grid and interval count, which the latest call shares with
    the next: the result is exactly the same for every market rate and
    every leverage above -1. A scenario that cannot be hashed (a path of
    a non-frozen dataclass, say) is searched afresh on every call.

    Raises:
        InvalidLeverageError: leverage <= -1 (at exactly -1 the equity
            return is the market rate at every rotation length, so the
            maximizer is undefined).
        ValueError: empty grid.
    """
    if not leverage > -1.0:
        raise InvalidLeverageError(
            "equity-return maximizer needs leverage strictly above -1"
        )
    grid = tuple(map(float, rotation_grid))
    try:
        hash(scenario)
    except TypeError:
        return _rroc_argmax.__wrapped__(scenario, grid, intervals)
    return _rroc_argmax(scenario, grid, intervals)
