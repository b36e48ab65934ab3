"""Racing CMA-ES threshold tuning on a bistatic OFDM sensing-feedback loop.

The package bundles: a planar bistatic sensing simulator producing a scalar
echo-strength measurement per frame (`scenario`, `radar`), the four-state
feedback loop and its episode objectives (`feedback`), multi-fidelity
stochastic objectives with exact cost accounting (`objective`), a CMA-ES
backbone (`cma`), the two-stage racing optimizer (`race`), MAP/IPN/SPSA
baselines (`baselines`), and a benchmark harness with CLI (`bench`, `cli`).
"""

from .baselines import (
    CalibrationError,
    HypothesisDensityModel,
    IpnConfig,
    SpsaSchedule,
    ipn_optimize,
    map_calibrate,
    map_thresholds,
    posterior_crossing,
    spsa_gradient,
    spsa_optimize,
)
from .cma import (
    CmaParams,
    CmaState,
    cma_optimize,
    default_params,
    init_state,
    sample_population,
    update,
)
from .feedback import (
    DEFAULT_ACTIONS,
    EpisodeTrace,
    InfeasibleThresholdsError,
    ObjectiveValues,
    StateActionTable,
    check_thresholds,
    classify,
    detection_reliability,
    episode_objectives,
    power_overhead,
    run_episode,
    scalarize,
    sensing_latency,
)
from .objective import (
    CostLedger,
    CrnSeedPlan,
    IsacObjective,
    OptimizeResult,
    RepeatedEstimate,
    SyntheticObjective,
    derive_seed_plan,
    evaluate_repeated,
)
from .race import (
    GenerationReport,
    RacingConfig,
    assemble_ranking,
    inverse_feasible,
    map_unconstrained,
    promote,
    race_cma_optimize,
    stage1_screen,
    stage2_refine,
    structured_sample,
    uncertainty_weights,
)
from .radar import (
    ChannelRealization,
    GeometryError,
    ResiSample,
    RxGrid,
    compute_resi,
    matched_filter,
    realize_channel,
    synthesize_rx_grid,
)
from .scenario import (
    GainModel,
    Rect,
    ScenarioConfig,
    TargetState,
    desk_scenario,
    initial_target_state,
    propagate_target,
)
from .seeding import derive_seed, rng_from

__version__ = "0.1.0"
