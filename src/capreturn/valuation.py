"""Present values of perpetually repeated rotations, with and without
leverage.

The unleveraged value discounts the net gain of one rotation and
capitalizes the infinite sequence of identical future rotations through
the factor ``1 / (1 - exp(-d * tau))``. The leveraged variant replaces
the rotation's terminal value with the equity holder's share after the
loan and its compounded interest are repaid at the rotation end.
"""

from __future__ import annotations

import math

from .errors import (
    CapReturnError,
    DegenerateCapitalError,
    IndeterminateRatioError,
    InvalidDiscountError,
    UnsupportedScheduleError,
)
from .growth import GrowthScenario, _exp
from .leverage import _require_leverage
from .quadrature import DEFAULT_INTERVALS

#: |exp(tau*(avg_rate - d)) - 1| below this is treated as a zero
#: unleveraged value, making the leverage ratio singular.
ZERO_NPV_TOLERANCE = 1e-10


def _require_simple(scenario: GrowthScenario) -> None:
    if scenario.investments:
        raise UnsupportedScheduleError(
            "present values are defined for investment-free rotations"
        )


def _require_discount(discount_rate: float) -> None:
    """Raise InvalidDiscountError unless the discount rate is strictly
    positive (the perpetuity factor diverges at zero) and not NaN."""
    if not discount_rate > 0.0:
        raise InvalidDiscountError("discount rate must be > 0")


def _perpetuity(
    scenario: GrowthScenario, net_gain: float, discount_rate: float, tau: float
) -> float:
    """Initial capital times the net gain of one rotation, earned every
    ``tau`` years forever and discounted at ``discount_rate``."""
    value = scenario.initial_capital * net_gain / (1.0 - _exp(-discount_rate * tau))
    if not math.isfinite(value):
        raise DegenerateCapitalError("present value is beyond float range")
    return value


def npv(
    scenario: GrowthScenario,
    rotation_length: float,
    discount_rate: float,
    *,
    intervals: int = DEFAULT_INTERVALS,
) -> float:
    """Present value of all future rotations (currency).

    With ``g = rotation_length * (avg_rate - discount_rate)`` this is
    ``K(0) * (exp(g) - 1) / (1 - exp(-discount_rate * rotation_length))``.
    Positive exactly when the average spot rate beats the discount rate.

    Raises:
        InvalidDiscountError: discount rate is not strictly positive
            (the perpetuity factor diverges at zero).
        DegenerateCapitalError: a growth factor or the value is beyond
            float range.
    """
    _require_simple(scenario)
    _require_discount(discount_rate)
    tau = rotation_length
    avg = scenario.path.time_average_rate(tau, intervals=intervals)
    return _perpetuity(scenario, _exp(tau * (avg - discount_rate)) - 1.0, discount_rate, tau)


def leveraged_npv(
    scenario: GrowthScenario,
    rotation_length: float,
    discount_rate: float,
    market_rate: float,
    leverage: float,
    *,
    intervals: int = DEFAULT_INTERVALS,
) -> float:
    """Present value when a loan of ``leverage`` times equity finances
    part of the capital, repaid with compound interest at rotation end.

    Collapses to :func:`npv` at zero leverage; at leverage -1 with the
    market rate equal to the discount rate the value is zero (all
    capital sits in interest-bearing instruments, which create nothing).

    Raises:
        DegenerateCapitalError: a growth factor or the value is beyond
            float range.
    """
    _require_simple(scenario)
    _require_discount(discount_rate)
    _require_leverage(leverage)
    tau = rotation_length
    avg = scenario.path.time_average_rate(tau, intervals=intervals)
    terminal = (1.0 + leverage) * _exp(tau * avg) - leverage * _exp(
        tau * market_rate
    )
    return _perpetuity(scenario, terminal * _exp(-tau * discount_rate) - 1.0, discount_rate, tau)


def leverage_npv_ratio(
    scenario: GrowthScenario,
    rotation_length: float,
    discount_rate: float,
    market_rate: float,
    leverage: float,
    *,
    intervals: int = DEFAULT_INTERVALS,
) -> float:
    """Leveraged over unleveraged present value (dimensionless).

    Also evaluates the closed form
    ``1 + L * (exp(tau*r) - exp(tau*u)) / (exp(tau*r) - exp(tau*d))``
    and insists the two agree to 1e-9 relative as an internal
    consistency check. When the market rate equals the discount rate the
    ratio is ``1 + L`` regardless of their level.

    Raises:
        IndeterminateRatioError: the unleveraged value is zero within
            tolerance (average rate equals the discount rate), where the
            ratio is singular.
        DegenerateCapitalError: a growth factor is beyond float range.
    """
    _require_simple(scenario)
    _require_discount(discount_rate)
    tau = rotation_length
    avg = scenario.path.time_average_rate(tau, intervals=intervals)
    if abs(_exp(tau * (avg - discount_rate)) - 1.0) <= ZERO_NPV_TOLERANCE:
        raise IndeterminateRatioError(
            "unleveraged present value is zero within tolerance; "
            "the leverage ratio diverges when the average rate equals "
            "the discount rate"
        )
    base = npv(scenario, tau, discount_rate, intervals=intervals)
    ratio = (
        leveraged_npv(
            scenario, tau, discount_rate, market_rate, leverage, intervals=intervals
        )
        / base
    )
    growth_term = _exp(tau * avg)
    closed_form = 1.0 + leverage * (growth_term - _exp(tau * market_rate)) / (
        growth_term - _exp(tau * discount_rate)
    )
    if abs(ratio - closed_form) > 1e-9 * max(1.0, abs(closed_form)):
        raise CapReturnError(
            f"leverage ratio cross-check failed: {ratio!r} vs {closed_form!r}"
        )
    return ratio
