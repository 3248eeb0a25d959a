"""Multi-class loss-system toolkit with dynamic guard-channel reservation.

Three layers: rate arithmetic and thresholds (:mod:`dynguard.traffic`),
steady-state chain analysis (:mod:`dynguard.markov`), and an event-driven
simulator (:mod:`dynguard.simulate`), tied together by a config-driven
sweep harness (:mod:`dynguard.sweep`, :mod:`dynguard.cli`).
"""

from .config import ConfigError, SweepConfig, load_config
from .markov import (
    BirthDeathChain,
    BlockingReport,
    SteadyStateDistribution,
    blocking_report,
    build_chain,
    erlang_b,
    nonpriority_report,
    quasi_stationary_curve,
    steady_state,
    steady_state_oracle,
)
from .simulate import (
    ArrivalTrace,
    Scenario,
    Scheme,
    SegmentStats,
    SimReport,
    blocking_stderr,
    run_simulation,
)
from .sweep import ResultRow, SweepError, emit_csv, run_sweep
from .traffic import (
    LoadCondition,
    RateEstimator,
    RateVector,
    SystemParams,
    ThresholdVector,
    ZeroTotalRateError,
    as_rate_vector,
    availability_thresholds,
    classify_load,
    total_arrival_rate,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalTrace",
    "BirthDeathChain",
    "BlockingReport",
    "ConfigError",
    "LoadCondition",
    "RateEstimator",
    "RateVector",
    "ResultRow",
    "Scenario",
    "Scheme",
    "SegmentStats",
    "SimReport",
    "SteadyStateDistribution",
    "SweepConfig",
    "SweepError",
    "SystemParams",
    "ThresholdVector",
    "ZeroTotalRateError",
    "as_rate_vector",
    "availability_thresholds",
    "blocking_report",
    "blocking_stderr",
    "build_chain",
    "classify_load",
    "emit_csv",
    "erlang_b",
    "load_config",
    "nonpriority_report",
    "quasi_stationary_curve",
    "run_simulation",
    "run_sweep",
    "steady_state",
    "steady_state_oracle",
    "total_arrival_rate",
]
