"""Return on equity under leverage and the loan-adjusted break-even
discount rate.

The leverage ratio is capital over equity minus one: zero when fully
self-financed, positive when borrowing, negative when part of the
equity is lent out instead, down to -1 when every unit of equity sits
in interest-bearing instruments.
"""

from __future__ import annotations

import math

from .errors import DegenerateCapitalError, InvalidLeverageError, WipedOutEquityError
from .growth import GrowthScenario, _exp, growth_cycle_irr
from .quadrature import DEFAULT_INTERVALS


def _require_leverage(leverage: float, market_rate: float) -> None:
    """Raise InvalidLeverageError for a leverage ratio below -1 (no more
    than all of the equity can be lent out), NaN or infinite, then for a
    market rate that is NaN or infinite."""
    if not leverage >= -1.0:
        raise InvalidLeverageError("leverage ratio cannot be below -1")
    if leverage == math.inf:
        raise InvalidLeverageError("leverage ratio must be finite")
    if not math.isfinite(market_rate):
        raise InvalidLeverageError("market rate must be finite")


def rroe(return_on_capital: float, leverage: float, market_rate: float) -> float:
    """Return rate on equity, per year.

    ``s + L * (s - u)``: borrowing amplifies the spread of the capital
    return ``s`` over the market rate ``u``; at leverage -1 everything
    is lent and the result is the market rate itself.

    Raises:
        InvalidLeverageError: leverage below -1, NaN or infinite, or a
            market rate NaN or infinite.
        DegenerateCapitalError: the result is not finite.
    """
    _require_leverage(leverage, market_rate)
    if leverage == -1.0:
        value = market_rate
    else:
        value = return_on_capital + leverage * (return_on_capital - market_rate)
    if not math.isfinite(value):
        raise DegenerateCapitalError("return on equity is beyond float range")
    return value


def leveraged_discount_rate(
    scenario: GrowthScenario,
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
        InvalidLeverageError: leverage below -1, NaN or infinite, or a
            market rate NaN or infinite.
        WipedOutEquityError: the terminal equity payoff is nonpositive
            (loan interest exceeds what the rotation produced), so no
            break-even rate exists; or it is within rounding of zero, so
            the rate found fails its zero-value check to 1e-9.
        DegenerateCapitalError: a growth factor is beyond float range.
    """
    _require_leverage(leverage, market_rate)
    tau = scenario.rotation_length
    avg = growth_cycle_irr(scenario, intervals=intervals)
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
    if not abs(check) <= 1e-9:
        raise WipedOutEquityError(
            "leveraged terminal value is within rounding of zero; the break-even "
            f"rate fails its zero-value check (residual {check:.3e})"
        )
    return rate
