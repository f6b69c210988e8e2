"""Budget-restricted random graph process: simulator, builder strategies,
and a Monte Carlo harness for the diamond / k-fan budget thresholds."""

__version__ = "0.3.0"

from .detect import (  # noqa: F401
    C4,
    DIAMOND,
    P3,
    P4,
    PAW,
    TRIANGLE,
    BuilderGraph,
    Pattern,
    contains_diamond,
    contains_fan,
    contains_pattern,
    count_pattern,
    diamond_completing_check,
    fan,
    link_matching_size,
    matching_within,
    read_edge_list,
)
from .errors import (  # noqa: F401
    BudgetBuilderError,
    BudgetContractViolation,
    ConfigurationError,
    CrossoverNotEstimable,
    DetectorMismatch,
    DuplicateEdgeError,
    OnlineRuleViolation,
    StreamExhausted,
    UnsupportedPattern,
)
from .experiments import (  # noqa: F401
    PhasePoint,
    ProbeRecord,
    SuccessEstimate,
    estimate_crossover,
    predicted_budget_threshold,
    predicted_log_threshold,
    probe_counts,
    run_trial_batch,
    run_trials,
    sweep_grid,
    wilson_interval,
)
from .process import (  # noqa: F401
    Edge,
    ProcessConfig,
    ProcessState,
    TrialRecord,
    new_process,
    next_edge,
    run_strategy,
)
from .strategies import (  # noqa: F401
    StrategyKind,
    StrategyParams,
    StrategySpec,
    build_strategy,
    select_strategy,
)
