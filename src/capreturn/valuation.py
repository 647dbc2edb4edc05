"""Present values of perpetually repeated rotations, with and without
leverage.

The unleveraged value discounts the net gain of one rotation and
capitalizes the infinite sequence of identical future rotations through
the factor ``1 / (1 - exp(-d * tau))``. The leveraged variant replaces
the rotation's terminal value with the equity holder's share after the
loan and its compounded interest are repaid at the rotation end.

Without intermediate investments every value here depends on the path
only through its time-average rate over the rotation, which is the IRR:
each public function takes that one number from
:func:`~capreturn.growth.growth_cycle_irr` over the scenario's own
rotation and evaluates a closed form of ``(K0, average rate, tau, d, u, L)``.
To value another rotation of the same path, pass
``with_rotation(scenario, tau)``.
"""

from __future__ import annotations

import math

from .errors import DegenerateCapitalError, IndeterminateRatioError, InvalidDiscountError
from .growth import GrowthScenario, _exp, growth_cycle_irr
from .leverage import _require_leverage
from .quadrature import DEFAULT_INTERVALS


def _require_discount(discount_rate: float) -> None:
    """Raise InvalidDiscountError unless the discount rate is strictly
    positive (the perpetuity factor diverges at zero) and not NaN."""
    if not discount_rate > 0.0:
        raise InvalidDiscountError("discount rate must be > 0")


def _perpetuity(k0: float, net_gain: float, discount_rate: float, tau: float) -> float:
    """Initial capital ``k0`` times the net gain of one rotation, earned
    every ``tau`` years forever and discounted at ``discount_rate``."""
    factor = 1.0 - _exp(-discount_rate * tau)  # 0 once d * tau is lost in rounding
    value = k0 * net_gain / factor if factor else math.inf
    if not math.isfinite(value):
        raise DegenerateCapitalError("present value is beyond float range")
    return value


def _npv(k0: float, avg: float, tau: float, discount_rate: float) -> float:
    """:func:`npv` of a rotation whose time-average rate is ``avg``."""
    return _perpetuity(k0, _exp(tau * (avg - discount_rate)) - 1.0, discount_rate, tau)


def _leveraged_npv(
    k0: float, avg: float, tau: float, discount_rate: float, market_rate: float, leverage: float
) -> float:
    """:func:`leveraged_npv` of a rotation whose time-average rate is ``avg``."""
    terminal = (1.0 + leverage) * _exp(tau * avg) - leverage * _exp(tau * market_rate)
    return _perpetuity(k0, terminal * _exp(-tau * discount_rate) - 1.0, discount_rate, tau)


def npv(
    scenario: GrowthScenario, discount_rate: float, *, intervals: int = DEFAULT_INTERVALS
) -> float:
    """Present value of all future rotations (currency).

    With ``tau`` the scenario's rotation length and
    ``g = tau * (avg_rate - discount_rate)`` this is
    ``K(0) * (exp(g) - 1) / (1 - exp(-discount_rate * tau))``.
    Positive exactly when the average spot rate beats the discount rate.

    Raises:
        InvalidDiscountError: discount rate is not strictly positive
            (the perpetuity factor diverges at zero).
        DegenerateCapitalError: a growth factor or the value is beyond
            float range.
    """
    _require_discount(discount_rate)
    avg = growth_cycle_irr(scenario, intervals=intervals)
    return _npv(scenario.initial_capital, avg, scenario.rotation_length, discount_rate)


def leveraged_npv(
    scenario: GrowthScenario,
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
        InvalidDiscountError: discount rate is not strictly positive
            (the perpetuity factor diverges at zero).
        InvalidLeverageError: leverage below -1, NaN or infinite, or a
            market rate NaN or infinite.
        DegenerateCapitalError: a growth factor or the value is beyond
            float range.
    """
    _require_discount(discount_rate)
    _require_leverage(leverage, market_rate)
    avg = growth_cycle_irr(scenario, intervals=intervals)
    return _leveraged_npv(
        scenario.initial_capital, avg, scenario.rotation_length,
        discount_rate, market_rate, leverage,
    )


def leverage_npv_ratio(
    scenario: GrowthScenario,
    discount_rate: float,
    market_rate: float,
    leverage: float,
    *,
    intervals: int = DEFAULT_INTERVALS,
) -> float:
    """Leveraged over unleveraged present value (dimensionless).

    Also evaluates the closed form
    ``1 + L * (exp(tau*r) - exp(tau*u)) / (exp(tau*r) - exp(tau*d))``
    and returns the ratio only where the two agree to 1e-9 relative.
    When the market rate equals the discount rate the ratio is ``1 + L``
    regardless of their level.

    Raises:
        InvalidDiscountError: discount rate is not strictly positive
            (the perpetuity factor diverges at zero).
        InvalidLeverageError: leverage below -1, NaN or infinite, or a
            market rate NaN or infinite.
        IndeterminateRatioError: the unleveraged value is zero, or so
            near zero (average rate near the discount rate) that the two
            forms disagree: the ratio is singular there.
        DegenerateCapitalError: a growth factor or a value is beyond
            float range.
    """
    _require_discount(discount_rate)
    _require_leverage(leverage, market_rate)
    tau = scenario.rotation_length
    avg = growth_cycle_irr(scenario, intervals=intervals)
    k0 = scenario.initial_capital
    base = _npv(k0, avg, tau, discount_rate)
    growth_term = _exp(tau * avg)
    gap = growth_term - _exp(tau * discount_rate)
    # Both forms divide by a difference that vanishes at avg = d and
    # cancels near it, where they round apart: the ratio is known only
    # where they agree.
    if base != 0.0 and gap != 0.0:
        ratio = _leveraged_npv(k0, avg, tau, discount_rate, market_rate, leverage) / base
        closed_form = 1.0 + leverage * (growth_term - _exp(tau * market_rate)) / gap
        if abs(ratio - closed_form) <= 1e-9 * max(1.0, abs(closed_form)):
            return ratio
    raise IndeterminateRatioError(
        "unleveraged present value is zero, or too near zero for the leverage "
        "ratio's two closed forms to agree to 1e-9; the ratio diverges when "
        "the average rate equals the discount rate"
    )
