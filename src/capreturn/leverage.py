"""Return on equity under leverage and the loan-adjusted break-even
discount rate.

The leverage ratio is capital over equity minus one: zero when fully
self-financed, positive when borrowing, negative when part of the
equity is lent out instead, down to -1 when every unit of equity sits
in interest-bearing instruments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from .errors import (
    CapReturnError,
    InvalidLeverageError,
    UnsupportedScheduleError,
    WipedOutEquityError,
)
from .growth import GrowthScenario, rroc, with_rotation
from .optimize import refine_argmax
from .quadrature import DEFAULT_INTERVALS


def _require_leverage(leverage: float) -> None:
    """Raise InvalidLeverageError for a leverage ratio below -1: no more
    than all of the equity can be lent out."""
    if leverage < -1.0:
        raise InvalidLeverageError("leverage ratio cannot be below -1")


@dataclass(frozen=True)
class LeverageSpec:
    """Leverage ratio, market interest rate, and optional explicit equity."""

    leverage: float
    market_rate: float = 0.0
    equity: float | None = None

    def __post_init__(self):
        _require_leverage(self.leverage)
        if self.equity is not None and self.equity <= 0.0:
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
    """
    if scenario.investments:
        raise UnsupportedScheduleError(
            "the break-even rate is defined for investment-free rotations"
        )
    _require_leverage(leverage)
    tau = rotation_length
    avg = scenario.path.time_average_rate(tau, intervals=intervals)
    inner = 1.0 + leverage * (1.0 - math.exp(-tau * (avg - market_rate)))
    if inner <= 0.0:
        raise WipedOutEquityError(
            "leveraged terminal value is nonpositive; equity is wiped out"
        )
    rate = avg + math.log(inner) / tau
    check = (
        (1.0 + leverage) * math.exp(avg * tau)
        - leverage * math.exp(market_rate * tau)
    ) * math.exp(-rate * tau) - 1.0
    if abs(check) > 1e-9:
        raise CapReturnError(
            f"break-even rate failed its zero-value check (residual {check:.3e})"
        )
    return rate


def rroe_argmax(
    scenario: GrowthScenario,
    leverage: float,
    market_rate: float,
    rotation_grid: Sequence[float],
    *,
    intervals: int = DEFAULT_INTERVALS,
) -> float:
    """Rotation length maximizing the return rate on equity.

    Scans the grid and refines by golden section. Since the equity
    return is a positive affine transform of the capital return whenever
    leverage exceeds -1, the maximizer coincides with the capital
    return's own maximizer for every market rate.

    Raises:
        InvalidLeverageError: leverage <= -1 (at exactly -1 the equity
            return is the market rate at every rotation length, so the
            maximizer is undefined).
        ValueError: empty grid.
    """
    if leverage <= -1.0:
        raise InvalidLeverageError(
            "equity-return maximizer needs leverage strictly above -1"
        )

    def objective(tau: float) -> float:
        value = rroc(with_rotation(scenario, tau), intervals=intervals)
        return rroe(value, leverage, market_rate)

    best_tau, _ = refine_argmax(objective, rotation_grid)
    return best_tau
