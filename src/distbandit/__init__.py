"""Deterministic simulator and analysis toolkit for distributed multi-armed
bandits with scheduled communication rounds."""

from .analysis import (
    BOUND_DENSE,
    BOUND_ONESHOT,
    BOUND_SPARSE,
    BoundReport,
    ComparisonRow,
    bound_report,
    compare,
    lower_bound_coefficient,
    upper_bound_coefficient,
    upper_bound_curve,
    write_comparison_csv,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    experiment_runs,
    figure1_preset,
    parse_config,
)
from .core import (
    BernoulliArmModel,
    ExplorationFunction,
    d_inf_bernoulli,
    exploration_value,
    kl_bernoulli,
    kl_truncated,
)
from .engine import (
    InvariantViolation,
    RunAggregate,
    RunConfig,
    WorldState,
    init_state,
    merge_views,
    run_monte_carlo,
    run_once,
    run_strategies,
    step,
)
from .policies import PolicySpec
from .schedule import (
    CommunicationSchedule,
    CountingGrowthReport,
    counting_growth_report,
    over_exploration_schedule,
    parse_schedule,
)

__all__ = [
    "BOUND_DENSE",
    "BOUND_ONESHOT",
    "BOUND_SPARSE",
    "BernoulliArmModel",
    "BoundReport",
    "CommunicationSchedule",
    "ComparisonRow",
    "ConfigError",
    "CountingGrowthReport",
    "ExperimentConfig",
    "ExplorationFunction",
    "InvariantViolation",
    "PolicySpec",
    "RunAggregate",
    "RunConfig",
    "WorldState",
    "bound_report",
    "compare",
    "counting_growth_report",
    "d_inf_bernoulli",
    "experiment_runs",
    "exploration_value",
    "figure1_preset",
    "init_state",
    "kl_bernoulli",
    "kl_truncated",
    "lower_bound_coefficient",
    "merge_views",
    "over_exploration_schedule",
    "parse_config",
    "parse_schedule",
    "run_monte_carlo",
    "run_once",
    "run_strategies",
    "step",
    "upper_bound_coefficient",
    "upper_bound_curve",
    "write_comparison_csv",
]

__version__ = "0.1.0"
