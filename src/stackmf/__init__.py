"""Numerical laboratory for delayed leader-follower particle systems and
their mean-field limits."""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    ExperimentInvalidError,
    ParameterError,
    SimulationDivergedError,
    StackmfError,
    ValidationError,
)
from .measures import (
    DiscreteMeasure,
    TransportPlan,
    empirical_from_samples,
    mixture,
    moment,
    rate_f,
    w2_exact_1d,
    w2_exact_lp,
)
from .coupling import (
    MixtureCoupling,
    build_pihat,
    mixture_w2_upper_bound,
    tv_half,
    verify_mixture_convexity,
)
from .dynamics import (
    CoefficientSet,
    DelayLaw,
    Draws,
    ModelSpec,
    Policy,
    PolicySet,
    TimeGrid,
    TrajectoryBundle,
    evaluate_costs_nplayer,
    path_controls,
    sample_delays,
    simulate_nplayer,
    snap_delays_to_grid,
)
from .meanfield import (
    ConditionalLawFlow,
    FixedPointReport,
    HolderReport,
    balanced_partition_level,
    evaluate_costs_limit,
    holder_exponent_estimate,
    partition_delay_law,
    simulate_limit_pair,
    solve_conditional_law,
)
from .rates import (
    EpsilonReport,
    EtaReport,
    GapReport,
    cost_gap_experiment,
    epsilon_nash_certify,
    eta_orthogonality_check,
    fit_slope,
    leave_one_out_check,
    predicted_exponent,
    predicted_n_slope,
    state_gap_experiment,
    synchronous_dominance_check,
    wasserstein_gap_curve,
)
from .cli import (
    ScenarioConfig,
    load_config,
    presets,
    run_experiment,
    save_config,
    validate_config,
)
