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

from .errors import InvalidLeverageError, WipedOutEquityError
from .growth import GrowthScenario, _exp, _segments, rroc
from .irr import growth_cycle_irr
from .memo import remember_latest
from .optimize import _first_order_argmax, _rounding
from .quadrature import DEFAULT_INTERVALS, cumulative_simpson_nodes


def _require_leverage(leverage: float) -> None:
    """Raise InvalidLeverageError for a leverage ratio below -1 (no more
    than all of the equity can be lent out), NaN or infinite."""
    if not leverage >= -1.0:
        raise InvalidLeverageError("leverage ratio cannot be below -1")
    if leverage == math.inf:
        raise InvalidLeverageError("leverage ratio must be finite")


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
            break-even rate exists; or it is within rounding of zero, so
            the rate found fails its zero-value check to 1e-9.
        DegenerateCapitalError: a growth factor is beyond float range.
    """
    _require_leverage(leverage)
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
    if abs(check) > 1e-9:
        raise WipedOutEquityError(
            "leveraged terminal value is within rounding of zero; the break-even "
            f"rate fails its zero-value check (residual {check:.3e})"
        )
    return rate


@remember_latest
def _rroc_argmax(
    scenario: GrowthScenario, rotation_grid: tuple[float, ...], intervals: int
) -> tuple[float, float]:
    """``optimize._first_order_argmax`` of the capital return, whose
    threshold is the capital return itself:
    ``d rroc / d tau = K(tau) / C(tau) * (r(tau) - rroc(tau))``, with ``C``
    the integral of capital ``K``. The running integrals of ``K * r`` and
    ``K`` at a node of the longest rotation are those of the rotation
    ending there, since a shorter rotation only drops the events at or
    after its end. A constant path is flat: the shortest rotation wins.

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
        ratio = profit / cumulative_simpson_nodes(capital, steps)
        return times, ratio, _rounding(ratio)

    return _first_order_argmax(
        scenario, rotation_grid, curve, lambda s: (rroc(s, intervals=intervals),) * 2
    )


def _rroc_optimum(
    scenario: GrowthScenario, rotation_grid: Sequence[float], intervals: int
) -> tuple[float, float]:
    """``_rroc_argmax`` of any grid sequence."""
    return _rroc_argmax(scenario, tuple(map(float, rotation_grid)), intervals)


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
    same for every market rate and leverage. The grid bounds the search
    range, not the candidates. A flat capital return (a constant path)
    gives the shortest rotation of the grid. The latest search is
    remembered, unless the scenario cannot be hashed (a path of a
    non-frozen dataclass, say).

    Raises:
        InvalidLeverageError: leverage <= -1, NaN or infinite (at
            exactly -1 the equity return is the market rate at every
            rotation length, so the maximizer is undefined).
        DomainError: empty grid, or a grid point not finite and > 0.
    """
    _require_leverage(leverage)
    if leverage == -1.0:
        raise InvalidLeverageError(
            "equity-return maximizer needs leverage strictly above -1"
        )
    return _rroc_optimum(scenario, rotation_grid, intervals)[0]
