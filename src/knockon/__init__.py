"""Insolvency contagion in interbank credit networks.

Build consistent bank balance sheets on top of a directed loan topology,
shock one bank, propagate distress through creditor chains, and measure the
distribution of knock-on default counts over large Monte Carlo ensembles,
with or without a capital surcharge on the biggest banks.
"""

__version__ = "0.3.0"

from .balance import (
    BalanceSheetSet,
    SheetConstants,
    ValidationReport,
    Violation,
    WeightMatrix,
    apply_surcharge,
    build_balance_sheets,
    compute_weights,
    validate,
)
from .cascade import (
    CascadeResult,
    DefaultEvent,
    LossRule,
    ShockState,
    initial_shock,
    propagate,
)
from .errors import (
    ConfigError,
    InfeasibleBalanceError,
    InvalidParameterError,
    KnockonError,
    NoInterbankMarketError,
    ParseError,
    ReplicationError,
)
from .experiment import (
    ScenarioConfig,
    SurchargePolicy,
    SweepRecord,
    SweepResult,
    percentile,
    sweep,
)
from .netgen import (
    DegreeStats,
    RngStream,
    Topology,
    degree_stats,
    gen_erdos_renyi,
    gen_preferential_attachment,
    read_edge_list,
    write_edge_list,
)

__all__ = [
    "__version__",
    "BalanceSheetSet",
    "CascadeResult",
    "ConfigError",
    "DefaultEvent",
    "DegreeStats",
    "InfeasibleBalanceError",
    "InvalidParameterError",
    "KnockonError",
    "LossRule",
    "NoInterbankMarketError",
    "ParseError",
    "ReplicationError",
    "RngStream",
    "ScenarioConfig",
    "SheetConstants",
    "ShockState",
    "SurchargePolicy",
    "SweepRecord",
    "SweepResult",
    "Topology",
    "ValidationReport",
    "Violation",
    "WeightMatrix",
    "apply_surcharge",
    "build_balance_sheets",
    "compute_weights",
    "degree_stats",
    "gen_erdos_renyi",
    "gen_preferential_attachment",
    "initial_shock",
    "percentile",
    "propagate",
    "read_edge_list",
    "sweep",
    "validate",
    "write_edge_list",
]
