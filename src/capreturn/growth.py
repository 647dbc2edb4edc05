"""Capital trajectories and expected return on capital over one rotation.

Capital compounds continuously at the spot rate between discrete
investment or divestment events, where it jumps by the event amount:
``K(t) = K(t_k) * exp(R(t) - R(t_k))`` on each event-free stretch, with
``R`` the cumulative return of the path. Expected values weight time
uniformly over the rotation.

Profit is recognized on an accrual basis: growth counts as it occurs,
and investment events are not profit themselves — they only change the
capital base that later growth compounds on.

Without intermediate events a cycle's IRR is its time-average spot rate
(:func:`growth_cycle_irr`); with them, see :func:`capreturn.irr.general_irr`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCapitalError, UnsupportedScheduleError
from .paths import ReturnPath, _require_within
from .quadrature import (
    DEFAULT_INTERVALS,
    _definite_integral,
    _grid,
    cumulative_simpson_nodes,
)


@dataclass(frozen=True)
class InvestmentEvent:
    """Dated capital injection (positive) or withdrawal (negative)."""

    time: float
    amount: float

    def __post_init__(self):
        if not (math.isfinite(self.time) and math.isfinite(self.amount)):
            raise ValueError("time and amount must be finite")


@dataclass(frozen=True)
class GrowthScenario:
    """One production site's rotation: starting capital, rotation length,
    spot-rate path, and optional intermediate investment events.

    Event times must be strictly inside the rotation and strictly
    increasing. The rotation must fit inside the path's domain.
    """

    initial_capital: float
    rotation_length: float
    path: ReturnPath
    investments: tuple[InvestmentEvent, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.initial_capital) and math.isfinite(self.rotation_length)):
            raise ValueError("initial_capital and rotation_length must be finite")
        if self.initial_capital <= 0.0:
            raise ValueError("initial_capital must be > 0")
        if self.rotation_length <= 0.0:
            raise ValueError("rotation_length must be > 0")
        span = (0.0, self.rotation_length)
        _require_within("rotation", span, "path domain", self.path.domain())
        times = [e.time for e in self.investments]
        if any(not 0.0 < t < self.rotation_length for t in times):
            raise ValueError("event times must lie strictly inside the rotation")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")


@dataclass(frozen=True)
class ExpectedValues:
    """Rotation-averaged profit rate, capitalization, and their ratio.

    ``rroc`` is ``profit_rate / capitalization`` by construction.
    """

    profit_rate: float
    capitalization: float
    rroc: float


def _exp(x: float) -> float:
    """``math.exp(x)``, with an overflow or an infinite result raised as
    DegenerateCapitalError: the closed forms' growth factors must stay
    within float range."""
    try:
        value = math.exp(x)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DegenerateCapitalError(f"growth factor exp({x:.6g}) is beyond float range")
    return value


def _require_investment_free(scenario: GrowthScenario) -> None:
    if scenario.investments:
        raise UnsupportedScheduleError(
            "closed forms (IRR, present values, break-even rate) need an "
            "investment-free scenario"
        )


def growth_cycle_irr(
    scenario: GrowthScenario, *, intervals: int = DEFAULT_INTERVALS
) -> float:
    """IRR of an investment-free growth cycle, per year.

    Buying the cycle at its starting capital and selling at its terminal
    capital breaks even under continuous discounting exactly at the
    time-average spot rate, which this returns. It is all that the closed
    forms (present values, break-even rate) take from the path, since
    without intermediate events they depend on it through nothing else.

    Raises:
        UnsupportedScheduleError: if the scenario has intermediate
            investment events (convert those to a cash-flow schedule and
            use :func:`general_irr` instead).
    """
    _require_investment_free(scenario)
    return scenario.path.time_average_rate(scenario.rotation_length, intervals=intervals)


def with_rotation(scenario: GrowthScenario, rotation_length: float) -> GrowthScenario:
    """Rescope a scenario to a different rotation length: how any function
    of a scenario, the closed forms included, values another rotation.

    Events at or beyond the new terminal time are dropped (the terminal
    divestment is never an intermediate event).
    """
    kept = tuple(e for e in scenario.investments if e.time < rotation_length)
    return GrowthScenario(
        initial_capital=scenario.initial_capital,
        rotation_length=rotation_length,
        path=scenario.path,
        investments=kept,
    )


def _segments(
    scenario: GrowthScenario, cuts, intervals: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One Simpson pass over the rotation, cut at every event, every path
    kink and the extra ``cuts`` (e.g. density knots).

    Returns ``(times, steps, rates, capital)``: the nodes, the step of
    each panel (see ``quadrature._grid``), and the spot rate and capital
    at each node. Capital is ``base * exp(R)``, with ``R`` the running
    integral of the rate; at each event the base moves by the event
    amount discounted to time 0. Each event is a cut given twice, so it
    gets a panel of zero width from its pre-jump to its post-jump node
    and no panel straddles a capital jump.

    Raises:
        DegenerateCapitalError: at the first event that leaves capital
            nonpositive, or at the first node where capital is beyond
            float range.
    """
    tau = scenario.rotation_length
    event_times = np.array([e.time for e in scenario.investments])
    all_cuts = np.concatenate((event_times, event_times, scenario.path._kinks(), cuts))
    times, steps = _grid(0.0, tau, all_cuts, intervals)
    rates = scenario.path._clipped_rates(times)
    returns = cumulative_simpson_nodes(rates, steps)
    # Capital beyond float range is inf or NaN, which is judged below.
    with np.errstate(over="ignore", invalid="ignore"):
        if not event_times.size:
            capital = scenario.initial_capital * np.exp(returns)
        else:
            after = np.searchsorted(times, event_times, "right") - 1  # post-jump nodes
            bases = _bases(scenario.initial_capital, scenario.investments, returns[after])
            spans = np.diff(after, prepend=0, append=times.size)
            capital = np.repeat(bases, spans) * np.exp(returns)
    _require_finite(times, capital)
    return times, steps, rates, capital


def _bases(initial_capital: float, events, returns: np.ndarray) -> np.ndarray:
    """Capital over ``exp(R)`` from time 0 and after each of ``events``,
    given ``R`` at their times: each event's amount discounted to time 0
    moves it. Call within ``np.errstate(over="ignore", invalid="ignore")``.

    Raises:
        DegenerateCapitalError: at the first event that leaves capital
            nonpositive.
    """
    amounts = np.array([e.amount for e in events])
    bases = np.cumsum(np.append(initial_capital, amounts * np.exp(-returns)))
    if np.any(bases[1:] <= 0.0):
        bad = events[np.argmax(bases[1:] <= 0.0)].time
        raise DegenerateCapitalError(f"capital nonpositive just after event at t={bad:g}")
    return bases


def _require_finite(times: np.ndarray, capital: np.ndarray) -> None:
    """Raise DegenerateCapitalError at the first time whose capital is
    beyond float range."""
    if not math.isfinite(capital.max()):  # NaN propagates through max
        bad = times[np.argmin(np.isfinite(capital))]
        raise DegenerateCapitalError(f"capital beyond float range at t={bad:g}")


def capital_at(
    scenario: GrowthScenario, t: float, *, intervals: int = DEFAULT_INTERVALS
) -> float:
    """Capital at time ``t`` within the rotation (currency).

    Only the events before ``t`` count, plus the amount of an event at
    exactly ``t``: at an event time the post-jump value is returned (the
    trajectory is right-continuous). On a path with an exact
    ``_antiderivative`` (a tabulated path) it is
    ``exp(R(t)) * (K0 + sum of a_k * exp(-R(t_k)) over t_k < t)``, with no
    pass, and capital is judged just before each of those events and at
    ``t``. On any other path it is the last node of the Simpson pass over
    the rotation cut short at ``t``, judged at every node.

    Raises:
        DomainError: if ``t`` is outside ``[0, rotation_length]``.
        DegenerateCapitalError: if capital is nonpositive at or before
            ``t``, or beyond float range where it is judged.
    """
    _require_within("time", (t, t), "rotation", (0.0, scenario.rotation_length))
    if t <= 0.0:
        return scenario.initial_capital
    t = min(t, scenario.rotation_length)  # the slack admits t, not a longer rotation
    if hasattr(scenario.path, "_antiderivative"):
        events = [e for e in scenario.investments if e.time < t]
        times = np.array([0.0, *(e.time for e in events), t])
        with np.errstate(over="ignore", invalid="ignore"):  # judged below
            antiderivative = scenario.path._antiderivative(times)
            returns = antiderivative[1:] - antiderivative[0]
            # Capital just before each event, then at t.
            trajectory = _bases(scenario.initial_capital, events, returns[:-1]) * np.exp(returns)
        _require_finite(times[1:], trajectory)
    else:
        _, _, _, trajectory = _segments(with_rotation(scenario, t), (), intervals)
    capital = float(trajectory[-1])
    capital += sum(e.amount for e in scenario.investments if e.time == t)
    if capital <= 0.0:
        raise DegenerateCapitalError(f"capital nonpositive just after event at t={t:g}")
    return capital


def expected_values(
    scenario: GrowthScenario, *, intervals: int = DEFAULT_INTERVALS
) -> ExpectedValues:
    """Expected profit rate, expected capitalization, and their ratio.

    Both expectations integrate over the rotation with uniform time
    weighting: profit rate as the average of ``K(t) * r(t)`` and
    capitalization as the average of ``K(t)``. Both come from the one
    Simpson pass of ``_segments``, whose panels stop at every event and
    path kink.
    """
    tau = scenario.rotation_length
    _, steps, rates, capital = _segments(scenario, (), intervals)
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        profit = _definite_integral(capital * rates, steps) / tau
        capitalization = _definite_integral(capital, steps) / tau
    if not (math.isfinite(profit) and math.isfinite(capitalization)):
        raise DegenerateCapitalError("expected capital is beyond float range")
    if capitalization <= 0.0:
        raise DegenerateCapitalError("expected capitalization is nonpositive")
    return ExpectedValues(
        profit_rate=profit,
        capitalization=capitalization,
        rroc=profit / capitalization,
    )


def expected_profit_rate(
    scenario: GrowthScenario, *, intervals: int = DEFAULT_INTERVALS
) -> float:
    """Rotation-average accrual profit rate (currency per year).

    Path-independent for investment-free scenarios: it equals
    ``K(0) * (exp(tau * avg_rate) - 1) / tau`` no matter how the spot
    rate is sequenced within the rotation.
    """
    return expected_values(scenario, intervals=intervals).profit_rate


def expected_capitalization(
    scenario: GrowthScenario, *, intervals: int = DEFAULT_INTERVALS
) -> float:
    """Rotation-average capitalization (currency). Path-dependent:
    front-loaded return paths hold more capital for longer and average
    higher than back-loaded paths with the same overall return."""
    return expected_values(scenario, intervals=intervals).capitalization


def rroc(scenario: GrowthScenario, *, intervals: int = DEFAULT_INTERVALS) -> float:
    """Expected rate of return on capital over the rotation, per year:
    expected profit rate divided by expected capitalization."""
    return expected_values(scenario, intervals=intervals).rroc
