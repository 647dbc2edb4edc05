"""Return on equity under leverage and the loan-adjusted break-even
discount rate.

The leverage ratio is capital over equity minus one: zero when fully
self-financed, positive when borrowing, negative when part of the
equity is lent out instead, down to -1 when every unit of equity sits
in interest-bearing instruments.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import DegenerateCapitalError, InvalidLeverageError, WipedOutEquityError
from .growth import GrowthScenario, _exp, _segments, growth_cycle_irr
from .memo import remember_latest
from .optimize import _first_order_argmax, _rounding
from .quadrature import DEFAULT_INTERVALS, _definite_integral, cumulative_simpson_nodes


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


@remember_latest
def _rroc_argmax(
    scenario: GrowthScenario, rotation_grid: tuple[float, ...], intervals: int
) -> float:
    """``optimize._first_order_argmax`` of the capital return, whose
    threshold is the capital return itself:
    ``d rroc / d tau = K(tau) / C(tau) * (r(tau) - rroc(tau))``, with ``C``
    the integral of capital ``K``. The running integrals ``P`` of ``K * r``
    and ``C`` of ``K`` at a node of the longest rotation are those of the
    rotation ending there, since a shorter rotation only drops the events
    at or after its end; between nodes, capital grows from the node's by
    the panel's running integral of the rate, and the threshold is
    ``P / C``. A constant path is flat: the shortest rotation wins.

    The latest search is remembered, so the equity-return maximizers of
    one scenario at several market rates or leverages share it. A
    scenario that cannot be hashed is searched afresh.

    Raises:
        DomainError: empty grid, or a grid point not finite and > 0.
        DegenerateCapitalError: from the pass over the longest rotation.
    """

    def curve(longest: GrowthScenario, grid: np.ndarray):
        times, steps, rates, capital = _segments(longest, grid, intervals)
        profit = cumulative_simpson_nodes(capital * rates, steps)
        capitalization = cumulative_simpson_nodes(capital, steps)
        ratio = profit / capitalization

        def threshold(i, t, step, panel):
            grown = capital[i] * np.exp(cumulative_simpson_nodes(panel, step))
            return (profit[i] + _definite_integral(grown * panel, step)) / (
                capitalization[i] + _definite_integral(grown, step)
            )

        return times, ratio, _rounding(ratio), threshold

    return _first_order_argmax(scenario, rotation_grid, curve)


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
    maximizer is the capital return's own, ``r(tau*) = rroc(tau*)``, the
    same for every market rate and leverage; at ``L = 0`` it is the
    capital return's maximizer. The grid bounds the search range, not the
    candidates. A flat capital return (a constant path) gives the
    shortest rotation of the grid. The search is one pass over the
    longest rotation and values no rotation; the latest search is
    remembered, unless the scenario cannot be hashed (a path of a
    non-frozen dataclass, say).

    Raises:
        InvalidLeverageError: leverage <= -1, NaN or infinite (at
            exactly -1 the equity return is the market rate at every
            rotation length, so the maximizer is undefined), or a market
            rate NaN or infinite.
        DomainError: empty grid, or a grid point not finite and > 0.
        DegenerateCapitalError: from the pass over the longest rotation.
    """
    _require_leverage(leverage, market_rate)
    if leverage == -1.0:
        raise InvalidLeverageError(
            "equity-return maximizer needs leverage strictly above -1"
        )
    return _rroc_argmax(scenario, tuple(map(float, rotation_grid)), intervals)
