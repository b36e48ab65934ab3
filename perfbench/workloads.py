"""The benchmark workloads: what one repetition runs and which files it writes.

Each workload is one closed loop driven by one process (``jobs = 1``). A
repetition ("rep") is one call of a ``racecma.bench`` entry point with
``repetitions = 1`` and a master seed from a pinned pool; the pool keeps every
rep's output checkable against digests taken from the reference program.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

from racecma.bench import ExperimentSpec, run_compare, run_sweep
from racecma.scenario import ScenarioConfig, desk_scenario

# Master seeds a rep may use. pins.json holds the reference outputs of each.
SEED_POOL = tuple(range(1, 17))
# Seconds one rep takes on a 2-core x86 VM (Xeon, KVM), used only to turn
# --seconds into a fixed rep count, so a slow machine does not do less work.
NOMINAL_REP_S = {"compare": 10.0, "sweep": 11.0, "paper_cold": 11.0}


@dataclass(frozen=True)
class Workload:
    name: str
    body: Callable[[ExperimentSpec, str], object]
    outputs: tuple[str, ...]
    build: Callable[[int], ExperimentSpec]
    shrink: Callable[[ExperimentSpec], ExperimentSpec]

    def spec(self, master_seed: int, minimal: bool = False) -> ExperimentSpec:
        spec = self.build(master_seed)
        return self.shrink(spec) if minimal else spec

    def runs_per_rep(self, spec: ExperimentSpec) -> int:
        """Optimizer runs in one rep: one per method, or one per sweep power."""
        return len(spec.power_grid) if self.body is run_sweep else len(spec.methods)


def _desk(master_seed: int) -> ExperimentSpec:
    return ExperimentSpec(repetitions=1, master_seed=master_seed, jobs=1)


def _paper_cold(master_seed: int) -> ExperimentSpec:
    # Plain CMA-ES charges every candidate its own seed; only the two
    # assessment seeds (j_init and j_final) repeat within a rep.
    return ExperimentSpec(
        scenario=ScenarioConfig(), methods=("CMA-ES",), generations=2, eval_repeats=2,
        repetitions=1, master_seed=master_seed, jobs=1,
    )


def _shrink_desk(spec: ExperimentSpec) -> ExperimentSpec:
    return replace(
        spec, scenario=desk_scenario(sensing_horizon=0.032), budget=24.0, generations=1,
        eval_repeats=2, power_grid=(10.0, 30.0), map_min_samples=2, map_episodes=1,
    )


def _shrink_paper(spec: ExperimentSpec) -> ExperimentSpec:
    return replace(
        spec, scenario=ScenarioConfig(sensing_horizon=0.05), budget=12.0, generations=1,
        eval_repeats=1,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare", run_compare,
                 ("compare_runs.csv", "compare_summary.csv", "spec.cfg"), _desk, _shrink_desk),
        Workload("sweep", run_sweep,
                 ("sweep_runs.csv", "sweep_summary.csv", "spec.cfg"), _desk, _shrink_desk),
        Workload("paper_cold", run_compare,
                 ("compare_runs.csv", "compare_summary.csv", "spec.cfg"), _paper_cold,
                 _shrink_paper),
    )
}


def reps_per_run(workload: str, seconds: float) -> int:
    """Reps that fill ``seconds`` at the nominal rep time; at least one."""
    return max(1, round(seconds / NOMINAL_REP_S[workload]))


def rep_master_seeds(seed: int, reps: int, work: dict[int, int]) -> list[int]:
    """Master seeds of the reps of a run with workload seed ``seed``.

    ``work`` maps each pool seed to the work its rep does (frames that ran the
    radar chain in the reference program). Reps come in pairs taken from the
    len(work) pairs whose summed work is closest to twice the pool mean, so
    every run does about the same work, while the same seed always gives the
    same reps.
    """
    target = 2 * sum(work.values()) / len(work)
    pairs = sorted(
        ((a, b) for a in work for b in work if a < b),
        key=lambda p: (abs(work[p[0]] + work[p[1]] - target), p),
    )[: len(work)]
    digest = hashlib.sha256(f"perfbench/{seed}".encode()).digest()
    offset = int.from_bytes(digest[:8], "little") % len(pairs)
    picks = [m for k in range(-(-reps // 2)) for m in pairs[(offset + k) % len(pairs)]]
    return picks[:reps]
