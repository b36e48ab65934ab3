"""Benchmark harness: method comparison, power sweep, convergence traces and
the self-validation suite, all reproducible from one master seed.

Each method is one entry of the table ``OPTIMIZERS``, ``name ->
fn(objective, spec, t0, seed) -> OptimizeResult``, which :func:`run_method`
runs against a fresh objective. The entries call the optimizers by this
module's names when a run starts, so a wrapper set on ``bench`` (the
benchmark tracer's) sees every call.

Every repetition draws its own UE placement and initial thresholds from the
per-repetition seed; all methods inside a repetition share that seed family,
so they face the same environment and the same evaluation randomness. Final
and initial configurations are assessed with a fixed set of evaluation seeds
that is never charged to any optimizer's ledger.

A run with ``jobs > 1`` spreads its repetitions over a process pool. The
pool's executor, and ``multiprocessing`` with it, is imported when that run
starts the pool, so a one-process run never loads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Annotated, Callable, Sequence

import numpy as np

from . import cma as cma_mod
from .baselines import (
    CalibrationError,
    IpnConfig,
    SpsaSchedule,
    ipn_optimize,
    map_calibrate,
    project_thresholds,
    spsa_optimize,
)
from .cma import default_params
from .config import config_hash, spec_from_config, spec_to_config
from .feedback import (
    DEFAULT_ACTIONS,
    InfeasibleThresholdsError,
    StateActionTable,
    check_thresholds,
    check_weights,
    episode_objectives,
    run_episodes,
)
from .objective import IsacObjective, OptimizeResult, RoundRecord
from .race import RacingConfig, inverse_feasible, map_unconstrained, race_cma_optimize
from .scenario import Bound, Count, Positive, ScenarioConfig, check_fields, desk_scenario
from .seeding import derive_seed, rng_from

# ---------------------------------------------------------------------------
# The method table


def _map(objective: IsacObjective, spec: ExperimentSpec, t0: np.ndarray,
         seed: int) -> OptimizeResult:
    """MAP placement, or ``t0`` when calibration yields no ordered crossings:
    no cost estimate, and one round that spent the calibration episodes."""
    try:
        point = map_calibrate(objective, seed, spec.map_episodes, spec.racing.min_spacing,
                              spec.map_min_samples)
    except CalibrationError:
        point = t0
    n_eq = objective.ledger.n_eq
    return OptimizeResult(point, math.nan, n_eq, [RoundRecord(1, n_eq, tuple(point))])


def _cma_args(spec: ExperimentSpec, t0: np.ndarray, seed: int) -> dict:
    """The arguments the two CMA loops share, from the spec and the start."""
    delta = spec.racing.min_spacing
    return dict(params=default_params(3, spec.population),
                init=(inverse_feasible(t0, delta), spec.init_sigma), budget=spec.budget,
                seed=seed, feasible_map=partial(map_unconstrained, min_spacing=delta),
                max_generations=spec.generations)


OPTIMIZERS = {
    "MAP": _map,
    "IPN": lambda obj, spec, t0, seed: ipn_optimize(obj, t0, spec.ipn, spec.budget, seed),
    "SPSA": lambda obj, spec, t0, seed: spsa_optimize(
        obj, t0, spec.spsa, spec.budget, seed, min_spacing=spec.racing.min_spacing),
    "CMA-ES": lambda obj, spec, t0, seed: cma_mod.cma_optimize(obj, **_cma_args(spec, t0, seed)),
    "RACE-CMA": lambda obj, spec, t0, seed: race_cma_optimize(
        obj, racing=spec.racing, **_cma_args(spec, t0, seed)),
}
METHODS = tuple(OPTIMIZERS)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a benchmark run depends on, in one reproducible bundle."""

    scenario: ScenarioConfig = field(default_factory=desk_scenario)
    methods: tuple[str, ...] = METHODS
    repetitions: Count = 20
    power_grid: tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0)
    budget: Positive = 96.0
    master_seed: int = 1
    actions: StateActionTable = DEFAULT_ACTIONS
    weights: tuple[float, float, float] = (1.0, 0.0, 0.0)
    # The sweep tunes a deployment blend: detection first, with latency and
    # power pressure so the closed loop also locks early and spends less.
    sweep_weights: tuple[float, float, float] = (1.0, 0.6, 0.05)
    # Deployment tuning repeats Stage 2 so the returned optimum rests on
    # averaged estimates (and inverse-variance weighting has real input).
    sweep_stage2_repetitions: Count = 2
    # Replication configuration: Stage-2 early-stopping emulation at 0.8.
    racing: RacingConfig = field(default_factory=lambda: RacingConfig(truncation=0.8))
    population: Annotated[int, Bound(2)] = 12
    generations: Count = 10
    convergence_powers: tuple[float, ...] = (20.0, 24.7)
    resi_bounds: tuple[float, float] = (0.05, 6.0)
    # Static reference configuration: conservative, interference-proof
    # thresholds of the kind a worst-case network default would use.
    fixed_thresholds: tuple[float, float, float] = (3.0, 4.5, 6.0)
    ue_box: tuple[float, float, float, float] = (-20.0, 20.0, 5.0, 15.0)
    init_sigma: Positive = 1.5
    eval_repeats: Count = 10
    ipn: IpnConfig = field(default_factory=IpnConfig)
    spsa: SpsaSchedule = field(default_factory=SpsaSchedule)
    map_min_samples: Count = 8
    map_episodes: Count = 3
    jobs: Count = 1

    def __post_init__(self) -> None:
        check_fields(self)
        # Checked for every method list: sweep always runs RACE-CMA.
        if self.racing.mirrored_sampling and self.population % 2:
            raise ValueError("population must be even while racing.mirrored_sampling is on")
        if len(self.power_grid) < 2:
            raise ValueError("power_grid needs at least two points")
        # Empty, either would reach spec.cfg as "" and fail every experiment.
        if not self.methods:
            raise ValueError("methods needs at least one method")
        if not self.convergence_powers:
            raise ValueError("convergence_powers needs at least one power")
        for name in ("methods", "power_grid", "convergence_powers"):  # else rows repeat
            if len(set(getattr(self, name))) < len(getattr(self, name)):
                raise ValueError(f"{name} lists an entry twice")
        x_min, x_max, y_min, y_max = self.ue_box
        if not (x_min < x_max and y_min < y_max):
            raise ValueError("ue_box must have positive extent: x_min < x_max, y_min < y_max")
        if not self.resi_bounds[0] <= self.resi_bounds[1]:
            raise ValueError("resi_bounds must be ordered: low <= high")
        # IPN needs a strictly ordered start, even from three equal draws.
        for end in self.resi_bounds:
            t = project_thresholds(np.full(3, end), self.racing.min_spacing)
            if not t[0] < t[1] < t[2]:
                raise ValueError("racing.min_spacing vanishes in rounding next to "
                                 f"experiment.resi_bounds value {end}")
        check_weights(self.weights)
        check_weights(self.sweep_weights)
        try:
            check_thresholds(self.fixed_thresholds)
        except InfeasibleThresholdsError as exc:
            raise ValueError(f"fixed_{exc}") from None  # "fixed_thresholds must be ..."
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        lo, hi = self.scenario.tx_power_range_dbm
        if any(not lo <= p <= hi for p in self.power_grid):
            raise ValueError("power grid outside the scenario power range")
        if any(not lo <= p <= hi for p in self.convergence_powers):
            raise ValueError("convergence powers outside the scenario power range")


# ---------------------------------------------------------------------------
# Output helpers


def _fmt(value) -> str:
    if isinstance(value, float):
        return "na" if math.isnan(value) else repr(value)
    return str(value)


def write_csv(path: Path, comment: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _mean_ci(values: Sequence[float]) -> tuple[float, float]:
    """Mean and normal-approximation 95% half-width (nan when n == 1)."""
    arr = np.asarray(values, float)
    if len(arr) == 0:
        return math.nan, math.nan
    if len(arr) == 1:
        return float(arr[0]), math.nan
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(len(arr))
    return float(arr.mean()), half


# ---------------------------------------------------------------------------
# Per-repetition environment and method runners


def _rep_env(
    spec: ExperimentSpec, rep: int, tag: str = "", power: float | None = None
) -> tuple[ScenarioConfig, np.ndarray, list[int], int]:
    """One repetition's scenario (randomized UE placement, optional power),
    random feasible start, assessment seeds and optimizer seed. ``tag`` and
    ``power`` keep the seeds of the three experiments apart."""
    rng = rng_from(spec.master_seed, "rep", rep, "ue")
    x_min, x_max, y_min, y_max = spec.ue_box
    ue = (float(rng.uniform(x_min, x_max)), float(rng.uniform(y_min, y_max)))
    scenario = replace(spec.scenario, ue_position=ue)
    if power is not None:
        scenario = replace(scenario, tx_power_dbm=power)
    rng = rng_from(spec.master_seed, "rep", rep, "init-thresholds")
    draw = rng.uniform(*spec.resi_bounds, size=3)
    t0 = project_thresholds(draw, spec.racing.min_spacing)
    at = () if power is None else (power,)
    seeds = [
        derive_seed(spec.master_seed, "rep", rep, tag + "assess", *at, j)
        for j in range(spec.eval_repeats)
    ]
    return scenario, t0, seeds, derive_seed(spec.master_seed, "rep", rep, tag + "opt", *at)


def assess(
    scenario: ScenarioConfig,
    actions: StateActionTable,
    triples: Sequence[Sequence[float]],
    seeds: Sequence[int],
) -> list[tuple[float, float, float]]:
    """Uncharged mean (J_det, J_lat/horizon, J_pow) over assessment seeds of
    each threshold triple. Every (seed, triple) pair goes into one
    :func:`run_episodes` call, seed-major, so the triples of a seed replay
    together."""
    k = len(triples)
    episodes = list(triples) * len(seeds)
    traces = run_episodes(scenario, episodes, [seed for seed in seeds for _ in range(k)], actions)
    per_episode = [episode_objectives(tr, t) for tr, t in zip(traces, episodes)]
    means = []
    for i in range(k):
        values = per_episode[i::k]
        det = [v.j_det for v in values]
        lat = [v.j_lat / scenario.frame_count for v in values]
        pw = [v.j_pow for v in values]
        means.append((float(np.mean(det)), float(np.mean(lat)), float(np.mean(pw))))
    return means


@dataclass
class MethodRun(OptimizeResult):
    """A table entry's result, ``n_eq`` from its ledger, ``failed`` past ten budgets."""

    failed: bool = False


def run_method(method: str, scenario: ScenarioConfig, spec: ExperimentSpec, t0: np.ndarray,
               seed: int) -> MethodRun:
    """Run the table's entry for ``method`` against a fresh objective/ledger."""
    if method not in OPTIMIZERS:
        raise ValueError(f"unknown method {method!r}")
    objective = IsacObjective(scenario, spec.actions, spec.weights)
    result = OPTIMIZERS[method](objective, spec, t0, seed)
    return MethodRun(result.best_point, result.best_cost, result.n_eq, result.history,
                     failed=result.n_eq > 10.0 * spec.budget)


# ---------------------------------------------------------------------------
# Experiments: one runner, one rep function and one summary per experiment


def _run(spec: ExperimentSpec, out_dir: Path | str, name: str, rep_fn: Callable,
         raw_header: Sequence[str], summarize: Callable,
         summary_header: Sequence[str]) -> list[dict]:
    """Run ``rep_fn(spec, rep)`` for every repetition, in ``spec.jobs``
    processes but no more than one per repetition (a lone repetition runs
    in this process); write ``<name>_runs.csv``, ``<name>_summary.csv`` and
    ``spec.cfg`` into ``out_dir``. ``summarize(spec, runs)`` turns the runs,
    keyed by ``raw_header``, into summary rows in ``summary_header`` order,
    which are returned keyed by that header. The reps run on the values that
    ``spec.cfg`` spells: ``derive_seed`` hashes ``repr``, so ``10``, ``10.0``
    and ``np.float64(10.0)`` would otherwise draw apart."""
    cfg = spec_to_config(spec)
    spec = spec_from_config(cfg, spec)
    reps = range(spec.repetitions)
    workers = min(spec.jobs, spec.repetitions)
    if workers > 1:
        # Imported here, not at the top: it loads multiprocessing (module docstring).
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(rep_fn, [spec] * spec.repetitions, reps))
    else:
        per_rep = [rep_fn(spec, rep) for rep in reps]
    raw = [row for rows in per_rep for row in rows]
    summary = summarize(spec, [dict(zip(raw_header, row)) for row in raw])

    out = Path(out_dir)
    digest = config_hash(cfg)
    comment = f"config_hash={digest} master_seed={spec.master_seed}"
    write_csv(out / f"{name}_runs.csv", comment, raw_header, raw)
    write_csv(out / f"{name}_summary.csv", comment, summary_header, summary)
    with open(out / "spec.cfg", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={digest}\n")
        for key in sorted(cfg):
            fh.write(f"{key} = {cfg[key]}\n")
    return [dict(zip(summary_header, row)) for row in summary]


def _compare_rep(spec: ExperimentSpec, rep: int) -> list[tuple]:
    scenario, t0, seeds, opt_seed = _rep_env(spec, rep)
    runs = [run_method(method, scenario, spec, t0, opt_seed) for method in spec.methods]
    (j_init, _, _), *finals = assess(
        scenario, spec.actions, [t0, *(r.best_point for r in runs)], seeds)
    rows = []
    for method, run, (j_final, _, _) in zip(spec.methods, runs, finals):
        delta_j = j_final - j_init
        eff = delta_j / run.n_eq if run.n_eq > 0 else math.nan
        rows.append((rep, method, j_init, j_final, delta_j, run.n_eq, eff, int(run.failed)))
    return rows


def _compare_summary(spec: ExperimentSpec, runs: list[dict]) -> list[tuple]:
    rows = []
    for method in spec.methods:
        mine = [r for r in runs if r["method"] == method]
        ok = [r for r in mine if not r["failed"]]
        d_mean, d_ci = _mean_ci([r["delta_j"] for r in ok])
        c_mean, c_ci = _mean_ci([r["n_eq"] for r in ok])
        _, e_ci = _mean_ci([r["efficiency"] for r in ok])
        efficiency = d_mean / c_mean if ok and c_mean > 0 else math.nan
        rows.append(
            (method, d_mean, d_ci, c_mean, c_ci, efficiency, e_ci, len(ok), len(mine) - len(ok))
        )
    return rows


def run_compare(spec: ExperimentSpec, out_dir: Path | str) -> list[dict]:
    """Method comparison over randomized repetitions: improvement, cost and
    efficiency per method."""
    return _run(
        spec, out_dir, "compare", _compare_rep,
        ("rep", "method", "j_init", "j_final", "delta_j", "n_eq", "efficiency", "failed"),
        _compare_summary,
        ("method", "delta_j", "delta_j_ci95", "n_eq", "n_eq_ci95",
         "efficiency", "efficiency_ci95", "runs", "failures"),
    )


def _sweep_rep(spec: ExperimentSpec, rep: int) -> list[tuple]:
    racing = replace(spec.racing, repetitions=spec.sweep_stage2_repetitions)
    generations = max(
        spec.generations, int(spec.budget // racing.generation_cost(spec.population))
    )
    tuning = replace(spec, weights=spec.sweep_weights, racing=racing, generations=generations)
    rows = []
    for power in spec.power_grid:
        scenario, t0, seeds, opt_seed = _rep_env(spec, rep, "sweep-", power)
        tuned = run_method("RACE-CMA", scenario, tuning, t0, opt_seed)
        for variant, means in zip(("fixed", "tuned"), assess(
                scenario, spec.actions, [spec.fixed_thresholds, tuned.best_point], seeds)):
            rows.append((rep, power, variant, *means))
    return rows


def _sweep_summary(spec: ExperimentSpec, runs: list[dict]) -> list[tuple]:
    rows = []
    for power in spec.power_grid:
        for variant in ("fixed", "tuned"):
            sel = [r for r in runs if r["power_dbm"] == power and r["variant"] == variant]
            det = _mean_ci([r["j_det"] for r in sel])
            lat = _mean_ci([r["j_lat_norm"] for r in sel])
            sense = _mean_ci([r["sense_power_frac"] for r in sel])
            rows.append((power, variant, *det, *lat, *sense, 1.0 - sense[0]))
    return rows


def run_sweep(spec: ExperimentSpec, out_dir: Path | str) -> list[dict]:
    """Fixed-vs-tuned comparison across the transmit-power grid."""
    return _run(
        spec, out_dir, "sweep", _sweep_rep,
        ("rep", "power_dbm", "variant", "j_det", "j_lat_norm", "sense_power_frac"),
        _sweep_summary,
        ("power_dbm", "variant", "j_det", "j_det_ci95", "j_lat_norm", "j_lat_ci95",
         "sense_power_frac", "sense_power_ci95", "comm_power_frac"),
    )


def _convergence_rep(spec: ExperimentSpec, rep: int) -> list[tuple]:
    rows = []
    for power in spec.convergence_powers:
        scenario, t0, seeds, opt_seed = _rep_env(spec, rep, "conv-", power)
        runs = [run_method(method, scenario, spec, t0, opt_seed) for method in spec.methods]
        # One record per generation, the last round's repeated, or the result's
        # for a budget that paid for no round (IPN below 7, SPSA below 20).
        trails = [run.history or [RoundRecord(1, run.n_eq, tuple(run.best_point))]
                  for run in runs]
        trails = [(trail + trail[-1:] * spec.generations)[:spec.generations] for trail in trails]
        # Best-so-far points repeat across generations and methods, and
        # assess is a pure function of the point at a fixed power.
        points = list(dict.fromkeys(tuple(map(float, r.point)) for trail in trails for r in trail))
        j_det_of = {
            point: det for point, (det, _, _)
            in zip(points, assess(scenario, spec.actions, points, seeds))
        }
        for method, trail in zip(spec.methods, trails):
            for gen, r in enumerate(trail, start=1):
                rows.append((rep, power, method, gen, j_det_of[tuple(map(float, r.point))],
                             float(r.n_eq)))
    return rows


def _convergence_summary(spec: ExperimentSpec, runs: list[dict]) -> list[tuple]:
    rows = []
    for power in spec.convergence_powers:
        for method in spec.methods:
            for gen in range(1, spec.generations + 1):
                sel = [
                    r for r in runs
                    if r["power_dbm"] == power and r["method"] == method and r["generation"] == gen
                ]
                det_mean, det_ci = _mean_ci([r["j_det"] for r in sel])
                neq_mean, _ = _mean_ci([r["n_eq"] for r in sel])
                rows.append((power, method, gen, det_mean, det_ci, neq_mean))
    return rows


def run_convergence(spec: ExperimentSpec, out_dir: Path | str) -> list[dict]:
    """Best-so-far detection reliability per generation, per method and power."""
    return _run(
        spec, out_dir, "convergence", _convergence_rep,
        ("rep", "power_dbm", "method", "generation", "j_det", "n_eq"),
        _convergence_summary,
        ("power_dbm", "method", "generation", "j_det", "j_det_ci95", "n_eq"),
    )
