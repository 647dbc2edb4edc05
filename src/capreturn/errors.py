"""Exception types shared across the package."""

from __future__ import annotations


class CapReturnError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CapReturnError, ValueError):
    """A time argument lies outside the domain of a path or rotation."""


class DegenerateCapitalError(CapReturnError, ArithmeticError):
    """Capital reached a value nonpositive or beyond float range, so return
    rates are undefined."""


class UnsupportedScheduleError(CapReturnError, ValueError):
    """The operation requires an investment-free scenario."""


class NoRootError(CapReturnError, ValueError):
    """The cash-flow schedule admits no internal rate of return."""


class DiscretizationError(CapReturnError, ValueError):
    """Event times cannot be placed on a common grid step."""


class RootConvergenceError(CapReturnError, ArithmeticError):
    """Root iteration failed to converge; carries the worst residual seen."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class InvalidDiscountError(CapReturnError, ValueError):
    """Discount rate must be strictly positive."""


class IndeterminateRatioError(CapReturnError, ArithmeticError):
    """The unleveraged present value is zero, or too near zero for the
    leverage ratio to be known, so the ratio is singular."""


class InvalidLeverageError(CapReturnError, ValueError):
    """Leverage ratio below -1 (more than all capital lent out)."""


class WipedOutEquityError(CapReturnError, ArithmeticError):
    """Leveraged terminal value is nonpositive, or within rounding of
    zero; no break-even discount rate exists or can be trusted."""


class ScenarioParseError(CapReturnError, ValueError):
    """Scenario text is not syntactically valid."""


class ScenarioValidationError(CapReturnError, ValueError):
    """Scenario document violates one or more invariants.

    ``violations`` holds ``(key_path, message)`` pairs, one per failed
    invariant, so callers see every problem at once.
    """

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = list(violations)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.violations)
        super().__init__(f"invalid scenario document: {lines}")
