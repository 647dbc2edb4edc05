"""Capital-return analytics for periodic growth processes.

Computes and contrasts the criteria used to judge a periodically
renewed investment — a rotation whose capital compounds at a
time-varying spot rate and is divested at the rotation end:

* expected rate of return on capital (capital-weighted, path-dependent),
* internal rate of return (cash-basis, path-independent on an
  investment-free cycle, where it equals the time-average spot rate),
* present value of the infinite rotation sequence, leveraged or not,
* return on equity under leverage and its break-even discount rate,
* facility-level aggregation over sites at different growth stages.

Everything operates on immutable value objects and pure functions, so
concurrent evaluation is safe throughout.
"""

from .errors import (
    CapReturnError,
    DegenerateCapitalError,
    DiscretizationError,
    DomainError,
    IndeterminateRatioError,
    InvalidDiscountError,
    InvalidLeverageError,
    NoRootError,
    RootConvergenceError,
    ScenarioParseError,
    ScenarioValidationError,
    UnsupportedScheduleError,
    WipedOutEquityError,
)
from .estate import (
    AgeDensity,
    EstateSpec,
    TabulatedAgeDensity,
    UniformAgeDensity,
    area_average_rate,
    estate_capitalization,
    estate_rroc,
)
from .growth import (
    ExpectedValues,
    GrowthScenario,
    InvestmentEvent,
    capital_at,
    expected_capitalization,
    expected_profit_rate,
    expected_values,
    rroc,
    with_rotation,
)
from .irr import (
    CashEvent,
    CashFlowSchedule,
    IrrResult,
    general_irr,
    growth_cycle_irr,
)
from .leverage import (
    leveraged_discount_rate,
    rroe,
    rroe_argmax,
)
from .paths import (
    ConstantPath,
    ReturnPath,
    ReversedPath,
    SinSquaredPath,
    TabulatedPath,
)
from .quadrature import DEFAULT_INTERVALS
from .scenario_io import (
    ScenarioDocument,
    document_to_json_dict,
    parse_scenario,
    read_cash_flow_csv,
    serialize_scenario,
    write_table,
)
from .valuation import leverage_npv_ratio, leveraged_npv, npv

__version__ = "0.1.0"

__all__ = [
    "AgeDensity",
    "CapReturnError",
    "CashEvent",
    "CashFlowSchedule",
    "ConstantPath",
    "DEFAULT_INTERVALS",
    "DegenerateCapitalError",
    "DiscretizationError",
    "DomainError",
    "EstateSpec",
    "ExpectedValues",
    "GrowthScenario",
    "IndeterminateRatioError",
    "InvalidDiscountError",
    "InvalidLeverageError",
    "InvestmentEvent",
    "IrrResult",
    "NoRootError",
    "ReturnPath",
    "ReversedPath",
    "RootConvergenceError",
    "ScenarioDocument",
    "ScenarioParseError",
    "ScenarioValidationError",
    "SinSquaredPath",
    "TabulatedAgeDensity",
    "TabulatedPath",
    "UniformAgeDensity",
    "UnsupportedScheduleError",
    "WipedOutEquityError",
    "area_average_rate",
    "capital_at",
    "document_to_json_dict",
    "estate_capitalization",
    "estate_rroc",
    "expected_capitalization",
    "expected_profit_rate",
    "expected_values",
    "general_irr",
    "growth_cycle_irr",
    "leverage_npv_ratio",
    "leveraged_discount_rate",
    "leveraged_npv",
    "npv",
    "parse_scenario",
    "read_cash_flow_csv",
    "rroc",
    "rroe",
    "rroe_argmax",
    "serialize_scenario",
    "with_rotation",
    "write_table",
]
