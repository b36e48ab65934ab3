"""Racing CMA-ES threshold tuning on a bistatic OFDM sensing-feedback loop.

The top level holds the library API of the README's quick start: the
objective, RACE-CMA, its baselines and the episode simulator. Every other
name is imported from its module (`racecma.race`, `racecma.radar`, ...).
"""

from .baselines import ipn_optimize, map_calibrate, spsa_optimize
from .cma import cma_optimize, default_params
from .feedback import check_thresholds, classify, run_episode, run_episodes
from .objective import IsacObjective, OptimizeResult
from .race import RacingConfig, map_unconstrained, race_cma_optimize
from .scenario import ScenarioConfig, desk_scenario

__version__ = "0.1.0"
