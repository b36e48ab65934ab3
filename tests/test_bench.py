import argparse
import concurrent.futures
import csv
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from racecma import baselines as baselines_mod
from racecma import bench as bench_mod
from racecma import cli as cli_mod
from racecma import cma as cma_mod
from racecma import feedback as feedback_mod
from racecma import objective as objective_mod
from racecma import validate as validate_mod
from racecma.bench import (
    ExperimentSpec,
    assess,
    run_compare,
    run_convergence,
    run_method,
    run_sweep,
    spec_to_config,
    _mean_ci,
    _rep_env,
)
from racecma.cli import build_spec, main
from racecma.config import schema
from racecma.feedback import detection_reliability, run_episode, run_episodes
from racecma.objective import (CostLedger, IsacObjective, OptimizeResult, RoundRecord,
                               derive_seed_plan)
from racecma.scenario import ScenarioConfig, desk_scenario
from racecma.validate import validate


def tiny_spec(**overrides) -> ExperimentSpec:
    params = dict(
        repetitions=2, methods=("MAP", "RACE-CMA"), budget=18.0,
        generations=2, eval_repeats=2, master_seed=7,
    )
    params.update(overrides)
    return ExperimentSpec(**params)


def _replaced(config, changes: dict):
    """``config`` with the fields in ``changes`` replaced; a dict value
    replaces fields of the nested config of that name in turn."""
    return replace(config, **{
        name: _replaced(getattr(config, name), value) if isinstance(value, dict) else value
        for name, value in changes.items()})


def read_rows(path: Path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestCompare:
    def test_outputs_and_efficiency_identity(self, tmp_path):
        rows = run_compare(tiny_spec(), tmp_path)
        raw = read_rows(tmp_path / "compare_runs.csv")
        assert len(raw) == 4  # 2 reps x 2 methods
        for row in raw:
            eff = float(row["efficiency"])
            ratio = float(row["delta_j"]) / float(row["n_eq"])
            assert eff == pytest.approx(ratio, rel=1e-12)
        summary = read_rows(tmp_path / "compare_summary.csv")
        for row, agg in zip(summary, rows):
            assert float(row["efficiency"]) == pytest.approx(
                float(row["delta_j"]) / float(row["n_eq"]), rel=1e-12
            )
            assert agg["method"] == row["method"]

    def test_single_rep_ci_not_applicable(self, tmp_path):
        rows = run_compare(tiny_spec(repetitions=1, methods=("MAP",)), tmp_path)
        assert math.isnan(rows[0]["delta_j_ci95"])
        summary = read_rows(tmp_path / "compare_summary.csv")
        assert summary[0]["delta_j_ci95"] == "na"

    def test_comment_line_carries_provenance(self, tmp_path):
        run_compare(tiny_spec(), tmp_path)
        first = (tmp_path / "compare_runs.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=") and "master_seed=7" in first

    def test_spec_snapshot_written(self, tmp_path):
        spec = tiny_spec()
        run_compare(spec, tmp_path)
        snapshot = (tmp_path / "spec.cfg").read_text()
        assert "experiment.master_seed = 7" in snapshot
        assert "scenario.n_beams = 20" in snapshot

    def test_map_without_a_calibration_keeps_the_start_point(self, tmp_path):
        # No state collects a million calibration samples, so MAP returns t0.
        spec = tiny_spec(methods=("MAP",), repetitions=1, map_min_samples=10**6)
        run_compare(spec, tmp_path)
        [row] = read_rows(tmp_path / "compare_runs.csv")
        assert float(row["delta_j"]) == 0.0
        assert float(row["n_eq"]) == spec.map_episodes
        assert row["failed"] == "0"

    def test_run_over_ten_budgets_is_failed(self, tmp_path):
        # MAP charges its episodes whatever the budget: 2 > 10 x 0.1.
        [summary] = run_compare(
            tiny_spec(methods=("MAP",), repetitions=1, budget=0.1, map_episodes=2), tmp_path)
        [row] = read_rows(tmp_path / "compare_runs.csv")
        assert (row["n_eq"], row["failed"]) == ("2.0", "1")
        assert (summary["runs"], summary["failures"]) == (0, 1)
        assert math.isnan(summary["delta_j"])
        assert read_rows(tmp_path / "compare_summary.csv")[0]["delta_j"] == "na"

    def test_methods_share_environment_within_rep(self):
        spec = tiny_spec()
        a, t0, seeds, opt_seed = _rep_env(spec, 0)
        b, *_ = _rep_env(spec, 0)
        assert a.ue_position == b.ue_position
        assert _rep_env(spec, 1)[0].ue_position != a.ue_position
        delta = spec.racing.min_spacing
        assert t0[0] + delta <= t0[1] and t0[1] + delta <= t0[2]
        # Another experiment's tag and power move the seeds only.
        swept, t0_swept, seeds_swept, opt_swept = _rep_env(spec, 0, "sweep-", 20.0)
        assert swept.ue_position == a.ue_position and np.array_equal(t0_swept, t0)
        assert swept.tx_power_dbm == 20.0
        assert not set(seeds_swept) & set(seeds) and opt_swept != opt_seed


class TestLedgerIsTheSimulatedWork:
    """Each ``run_method`` call's ledger charges exactly the episodes it
    simulates, and assessment charges none: one rep of a compare, a sweep
    and a convergence on the golden spec, and a compare at paper scale,
    with ``run_episodes`` wrapped wherever the package calls it. Every
    episode of a call at fidelity f simulates ceil(f · frame_count) frames,
    which is f · frame_count at these specs, so the ledger's charge is the
    frames simulated over frame_count."""

    SPEC = ExperimentSpec(
        scenario=desk_scenario(), repetitions=1, generations=2, budget=36.0,
        eval_repeats=4, power_grid=(10.0, 30.0), map_min_samples=2, map_episodes=1,
        master_seed=7, jobs=1,
    )

    def _charges(self, tmp_path, monkeypatch, experiment, spec=SPEC) -> list[tuple]:
        """Run ``experiment`` on ``spec`` and check every run_method call's
        ledger against the run_episodes calls it made; the (method, stage-2
        repetitions) of each call."""
        # (site, run_method call, kind, fidelity, seeds, frames of each
        # episode) of each run_episodes call
        calls = []
        now = {"call": None, "kind": None}
        runs = []  # [method, spec, seed, ledger] of each run_method call
        real_episodes = bench_mod.run_episodes
        signature = inspect.signature(real_episodes)

        def wrap(site):
            def run_episodes(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                traces = real_episodes(*args, **kwargs)
                calls.append((site, now["call"], now["kind"], bound.arguments["fidelity"],
                              list(bound.arguments["seeds"]), [len(t.resi) for t in traces]))
                return traces
            return run_episodes

        for module in (objective_mod, baselines_mod, bench_mod):
            assert module.run_episodes is real_episodes
            monkeypatch.setattr(module, "run_episodes", wrap(module.__name__.split(".")[-1]))

        real_evaluate = IsacObjective.evaluate_many

        def evaluate_many(self, points, seeds, fidelity=1.0, kind="full"):
            now["kind"] = kind
            try:
                return real_evaluate(self, points, seeds, fidelity, kind)
            finally:
                now["kind"] = None

        class Recorded(IsacObjective):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs[now["call"]][3] = self.ledger

        real_run_method, real_assess = bench_mod.run_method, bench_mod.assess

        def run_method(method, scenario, spec, t0, seed):
            now["call"] = len(runs)
            runs.append([method, spec, seed, None])
            try:
                return real_run_method(method, scenario, spec, t0, seed)
            finally:
                now["call"] = None

        def assess(*args):
            before = [ledger.exact_total for *_, ledger in runs]
            means = real_assess(*args)
            assert [ledger.exact_total for *_, ledger in runs] == before
            return means

        monkeypatch.setattr(IsacObjective, "evaluate_many", evaluate_many)
        monkeypatch.setattr(bench_mod, "IsacObjective", Recorded)
        monkeypatch.setattr(bench_mod, "run_method", run_method)
        monkeypatch.setattr(bench_mod, "assess", assess)
        getattr(bench_mod, f"run_{experiment}")(spec, tmp_path)

        frame_count = spec.scenario.frame_count
        for _, _, _, fidelity, seeds, frames in calls:
            per_episode = Fraction(str(fidelity)) * frame_count
            assert frames == [math.ceil(fidelity * frame_count)] * len(seeds), fidelity
            assert frames == [per_episode] * len(seeds), fidelity
        for i, (method, spec, seed, ledger) in enumerate(runs):
            mine = [call for call in calls if call[1] == i]
            assert {site for site, *_ in mine} <= {"objective", "baselines"}, method
            # The ledger reads each fidelity as its shortest decimal.
            charges = {"stage1": Fraction(0), "stage2": Fraction(0), "full": Fraction(0)}
            for _, _, kind, fidelity, seeds, _ in mine:
                charges[kind or "full"] += Fraction(str(fidelity)) * len(seeds)
            assert sum(charges.values()) == ledger.exact_total > 0, method
            assert {kind: weight for kind, (_, weight) in ledger.breakdown.items()} == {
                kind: float(total) for kind, total in charges.items()}, method
            # Generation g screens every candidate on its plan's one stage-1
            # seed, the racing premise, and refines on exactly its plan's
            # stage-2 seeds, each point once per seed.
            stage1 = [seeds for _, _, kind, _, seeds, _ in mine if kind == "stage1"]
            stage2 = [seeds for _, _, kind, _, seeds, _ in mine if kind == "stage2"]
            assert len(stage1) == len(stage2) and bool(stage1) == (method == "RACE-CMA"), method
            for gen, (screened, refined) in enumerate(zip(stage1, stage2)):
                plan = derive_seed_plan(seed, gen, spec.racing.repetitions)
                assert set(screened) == {plan.stage1_seed}, (method, gen)
                k, rest = divmod(len(refined), len(plan.stage2_seeds))
                assert rest == 0 and Counter(refined) == {s: k for s in plan.stage2_seeds}, (
                    method, gen)
        # Every call outside a method is assessment's, made by bench itself.
        assessed = [call for call in calls if call[1] is None]
        assert assessed and {site for site, *_ in assessed} == {"bench"}
        return [(method, spec.racing.repetitions if method == "RACE-CMA" else None)
                for method, spec, *_ in runs]

    def test_compare_charges_every_simulated_episode_and_nothing_else(self, tmp_path,
                                                                      monkeypatch):
        assert self._charges(tmp_path, monkeypatch, "compare") == [
            (method, 1 if method == "RACE-CMA" else None) for method in self.SPEC.methods]

    def test_paper_scale_compare_charges_every_simulated_frame(self, tmp_path, monkeypatch):
        # The paper-scale golden spec's scenario: 100 frames of the 40x100
        # grid, whose batches of several seeds split over two threads, on a
        # one-CPU machine too.
        spec = replace(self.SPEC, scenario=ScenarioConfig(sensing_horizon=1.0))
        assert spec.scenario.frame_count == 100
        splits = []
        real_split = feedback_mod._split_lockstep

        def split_lockstep(const, runs, n_frames):
            splits.append(len(runs))
            real_split(const, runs, n_frames)

        monkeypatch.setattr(feedback_mod, "_cpu_count", lambda: 2)
        monkeypatch.setattr(feedback_mod, "_split_lockstep", split_lockstep)
        assert self._charges(tmp_path, monkeypatch, "compare", spec) == [
            (method, 1 if method == "RACE-CMA" else None) for method in spec.methods]
        assert splits and min(splits) > 1

    def test_sweep_charges_every_simulated_episode_and_nothing_else(self, tmp_path,
                                                                    monkeypatch):
        # RACE-CMA once per power, refining on two stage-2 seeds.
        assert self.SPEC.sweep_stage2_repetitions == 2
        assert self._charges(tmp_path, monkeypatch, "sweep") == [
            ("RACE-CMA", 2)] * len(self.SPEC.power_grid)

    def test_convergence_charges_every_simulated_episode_and_nothing_else(self, tmp_path,
                                                                          monkeypatch):
        # Every method once per power.
        assert self._charges(tmp_path, monkeypatch, "convergence") == [
            (method, 1 if method == "RACE-CMA" else None)
            for _ in self.SPEC.convergence_powers for method in self.SPEC.methods]


class TestSweep:
    def test_two_point_grid_minimum(self, tmp_path):
        spec = tiny_spec(power_grid=(10.0, 30.0))
        rows = run_sweep(spec, tmp_path)
        assert len(rows) == 4  # 2 powers x (fixed, tuned)
        with pytest.raises(ValueError):
            run_sweep(tiny_spec(power_grid=(20.0,)), tmp_path)

    def test_summary_columns(self, tmp_path):
        run_sweep(tiny_spec(power_grid=(10.0, 30.0)), tmp_path)
        summary = read_rows(tmp_path / "sweep_summary.csv")
        assert {row["variant"] for row in summary} == {"fixed", "tuned"}
        for row in summary:
            assert 0.0 <= float(row["j_det"]) <= 1.0
            assert float(row["comm_power_frac"]) == pytest.approx(
                1.0 - float(row["sense_power_frac"]), abs=1e-12
            )


class TestConvergence:
    def test_rows_per_generation_and_method(self, tmp_path):
        spec = tiny_spec(methods=("CMA-ES", "RACE-CMA"), convergence_powers=(20.0,),
                         generations=3)
        rows = run_convergence(spec, tmp_path)
        assert len(rows) == 2 * 3
        gens = sorted({r["generation"] for r in rows})
        assert gens == [1, 2, 3]

    def test_race_generations_cost_less(self, tmp_path):
        spec = tiny_spec(methods=("CMA-ES", "RACE-CMA"), convergence_powers=(20.0,),
                         generations=2, budget=30.0)
        rows = run_convergence(spec, tmp_path)
        per_gen = {r["method"]: r["n_eq"] for r in rows if r["generation"] == 1}
        assert per_gen["RACE-CMA"] < per_gen["CMA-ES"]

    def test_rows_carry_their_records_n_eq(self, tmp_path):
        # Each generation's n_eq is the cost of the record whose point it
        # reports, the last record's on a padded generation. A linear split
        # of the run's total labelled IPN's records at 8 and 18 as 13 and
        # 26, and SPSA's one record at 21 as 14.5 and 29.
        spec = tiny_spec(methods=("IPN", "SPSA"), convergence_powers=(20.0,), budget=30.0,
                         repetitions=1)
        rows = run_convergence(spec, tmp_path)
        scenario, t0, _, seed = _rep_env(spec, 0, "conv-", 20.0)
        for method in spec.methods:
            n_eqs = [r.n_eq for r in run_method(method, scenario, spec, t0, seed).history]
            n_eqs = (n_eqs + n_eqs[-1:] * spec.generations)[:spec.generations]
            assert [r["n_eq"] for r in rows if r["method"] == method] == n_eqs

    def test_map_runs_appear_flat(self, tmp_path):
        spec = tiny_spec(methods=("MAP",), convergence_powers=(20.0,), generations=3)
        rows = run_convergence(spec, tmp_path)
        dets = [r["j_det"] for r in rows]
        assert len(set(dets)) == 1


class TestHelpers:
    def test_mean_ci(self):
        mean, ci = _mean_ci([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert ci == pytest.approx(1.96 * 1.0 / math.sqrt(3))
        _, nan_ci = _mean_ci([1.0])
        assert math.isnan(nan_ci)

    def test_assess_excludes_nothing_by_default(self, desk, monkeypatch):
        calls = []

        def logged(scenario, triples, seeds, *args):
            calls.append(list(seeds))
            return run_episodes(scenario, triples, seeds, *args)

        monkeypatch.setattr(bench_mod, "run_episodes", logged)
        thresholds = np.array([0.5, 1.0, 1.5])
        [(j_det, j_lat, j_pow)] = assess(desk, tiny_spec().actions, [thresholds], seeds=[1, 2])
        assert 0.0 <= j_det <= 1.0 and 0.0 <= j_lat <= 1.0 and 0.0 <= j_pow <= 1.0
        # J_det averages over every seed.
        dets = [detection_reliability(run_episode(desk, thresholds, seed=s), thresholds)
                for s in (1, 2)]
        assert j_det == float(np.mean(dets))
        # A triple assessed beside others gets the same means as alone.
        other = (2.0, 3.0, 4.0)
        together = assess(desk, tiny_spec().actions, [other, thresholds, other], seeds=[1, 2])
        assert together == [assess(desk, tiny_spec().actions, [t], seeds=[1, 2])[0]
                            for t in (other, thresholds, other)]
        # Each assess is one call over its (seed, triple) pairs, seed-major.
        assert calls[:2] == [[1, 2], [1, 1, 1, 2, 2, 2]]

    @pytest.mark.parametrize("jobs, repetitions, workers", [(16, 2, 2), (2, 3, 2), (2, 1, None)])
    def test_pool_has_no_more_workers_than_reps(self, tmp_path, monkeypatch, jobs, repetitions,
                                                workers):
        # With the fork start method a pool forks all its workers at the
        # first submit, used or not. The pool gets no initializer: its
        # workers keep each batch on one thread by themselves (feedback). A
        # lone repetition runs in the calling process: no pool at all (None).
        sizes = []

        class InProcess:
            def __init__(self, max_workers, **options):
                assert options == {}
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # _run imports the executor from concurrent.futures when it starts a pool.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
        run_compare(tiny_spec(methods=("MAP",), repetitions=repetitions, jobs=jobs), tmp_path)
        assert sizes == ([] if workers is None else [workers])

    @pytest.mark.parametrize("method", bench_mod.METHODS)
    def test_every_entry_returns_one_result_shape(self, method):
        # At a budget of 24 every method records at least one round.
        spec = tiny_spec(budget=24.0)
        scenario, t0, _, seed = _rep_env(spec, 0)
        objective = IsacObjective(scenario, spec.actions, spec.weights)
        result = bench_mod.OPTIMIZERS[method](objective, spec, t0, seed)
        assert type(result) is OptimizeResult
        assert result.best_point.dtype == np.float64 and result.best_point.shape == (3,)
        assert result.n_eq == objective.ledger.n_eq
        assert result.history and all(isinstance(r, RoundRecord) for r in result.history)
        n_eqs = [r.n_eq for r in result.history]
        assert n_eqs == sorted(n_eqs) and n_eqs[-1] <= result.n_eq

    def test_map_entry_without_a_calibration_is_one_round_at_t0(self):
        spec = tiny_spec(map_min_samples=10**6)
        scenario, t0, _, seed = _rep_env(spec, 0)
        objective = IsacObjective(scenario, spec.actions, spec.weights)
        result = bench_mod.OPTIMIZERS["MAP"](objective, spec, t0, seed)
        assert result.best_point is t0 and math.isnan(result.best_cost)
        assert result.n_eq == spec.map_episodes
        assert result.history == [RoundRecord(1, spec.map_episodes, tuple(t0))]

    def test_unknown_method_rejected(self, desk):
        spec = tiny_spec()
        with pytest.raises(ValueError):
            run_method("NEWTON", desk, spec, np.array(spec.fixed_thresholds), 1)
        with pytest.raises(ValueError):
            ExperimentSpec(methods=("GRADIENT",))

    @pytest.mark.parametrize("field, value, message", [
        ("budget", -1.0, "budget must be positive"),
        ("budget", 0.0, "budget must be positive"),
        ("eval_repeats", 0, "eval_repeats must be >= 1"),
        ("map_episodes", 0, "map_episodes must be >= 1"),
        ("fixed_thresholds", (math.inf, 4.5, 6.0), "fixed_thresholds must be finite"),
        ("fixed_thresholds", (3.0, math.nan, 6.0), "fixed_thresholds must be finite"),
        # A non-integral count would fail only mid-run, in range() or repeat().
        *((name, 2.5, f"{name} must be an integer") for name in (
            "repetitions", "eval_repeats", "generations", "population", "map_episodes",
            "map_min_samples", "sweep_stage2_repetitions", "jobs")),
        ("repetitions", 1.0, "repetitions must be an integer"),
        # A dict replaces fields of the nested config of that name.
        ("racing", {"repetitions": 1.5}, "repetitions must be an integer"),
        ("ipn", {"outer_rounds": 2.5}, "outer_rounds must be an integer"),
        ("ipn", {"newton_iters": 2.0}, "newton_iters must be an integer"),
        *((name, value, f"{name} must be finite and real")
          for name in ("budget", "init_sigma") for value in (math.inf, math.nan)),
        # spec.cfg could not read these back, or would read back another value.
        ("master_seed", 1.5, "master_seed must be an integer"),
        ("racing", {"diagonal_warmup_generations": 1.5},
         "diagonal_warmup_generations must be an integer"),
        ("actions", {"period_multipliers": (1, 1, 1, 2.5)}, "period_multipliers must be an integer"),
        ("racing", {"mirrored_sampling": "no"}, "mirrored_sampling must be a bool"),
        # Non-finite or non-real floats pass most range checks and fail mid-run.
        *(("scenario", {name: value}, f"{name} must be finite and real")
          for name in ("sensing_horizon", "carrier_freq", "antenna_spacing", "heading_jitter")
          for value in (math.inf, math.nan)),
        ("scenario", {"antenna_spacing": "0.5"}, "antenna_spacing must be finite and real"),
        *(("scenario", {"gain_model": {name: value}}, f"{name} must be finite and real")
          for name in ("scattering_gain", "nlos_gain_ratio", "nlos_excess_delay",
                       "nlos_angle_offset", "nlos_doppler_ratio")
          for value in (math.inf, None)),
        ("racing", {"weighting_floor": math.inf}, "weighting_floor must be finite and real"),
        *(("ipn", {name: math.inf}, f"{name} must be finite and real")
          for name in ("barrier_init", "barrier_shrink")),
        *(("spsa", {name: math.inf}, f"{name} must be finite and real")
          for name in ("a", "c", "stability")),
        ("weights", (math.inf, 0.0, 0.0), "weights must be finite and real"),
        ("weights", (1.0, math.nan, 0.0), "weights must be finite and real"),
        # spec.cfg would write either as "", which no experiment reads back.
        ("methods", (), "methods needs at least one method"),
        ("convergence_powers", (), "convergence_powers needs at least one power"),
        ("racing", {"min_spacing": math.inf}, "min_spacing must be finite and real"),
        ("racing", {"min_spacing": math.nan}, "min_spacing must be finite and real"),
        # A repeated entry repeats its summary row and counts every rep twice;
        # powers compare as floats.
        ("methods", ("MAP", "RACE-CMA", "MAP"), "methods lists an entry twice"),
        ("power_grid", (10.0, 10.0), "power_grid lists an entry twice"),
        ("power_grid", (10, 20.0, 10.0), "power_grid lists an entry twice"),
        ("convergence_powers", (20.0, np.float64(20.0)),
         "convergence_powers lists an entry twice"),
        # Each racing range error names its field.
        ("racing", {"repetitions": 0}, "repetitions must be >= 1"),
        ("racing", {"weighting_floor": 0.0}, "weighting_floor must be positive"),
        ("racing", {"min_spacing": -0.1}, "min_spacing must be positive"),
        ("racing", {"promotion_fraction": 1.5}, r"promotion_fraction must lie in \(0, 1\]"),
        ("racing", {"diagonal_warmup_generations": -1},
         "diagonal_warmup_generations must be >= 0"),
    ])
    def test_meaningless_specs_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            if isinstance(value, dict):
                value = _replaced(getattr(tiny_spec(), field), value)
            tiny_spec(**{field: value})

    def test_spec_config_covers_scenario_and_experiment(self):
        cfg = spec_to_config(tiny_spec())
        assert cfg["scenario.n_bs_antennas"] == "32"
        assert cfg["experiment.budget"] == "18.0"
        assert cfg["racing.truncation"] == "0.8"


# Run as a script in a fresh interpreter, since pytest has imported the
# executors and numpy.ma itself: a tiny desk compare or convergence run at
# the given jobs and repetitions on a two-CPU affinity, so a draw large
# enough to split would start the noise helper. Each repetition writes its
# process id beside the output, and the script prints its own id and which
# watched modules the run loaded: the executors, and numpy.ma, which
# np.quantile's np.unique imports on first use and MAP's calibration avoids.
_FOOTPRINT_SCRIPT = """
import json, os, sys
from pathlib import Path

from racecma import bench
from racecma.bench import ExperimentSpec

jobs, repetitions, out = int(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3])
experiment = sys.argv[4]
os.sched_getaffinity = lambda pid: {0, 1}  # forks inherit it
_real_rep = getattr(bench, f"_{experiment}_rep")


def rep(spec, r):
    (out.parent / f"{out.name}-rep{r}.pid").write_text(str(os.getpid()))
    return _real_rep(spec, r)


if __name__ == "__main__":
    setattr(bench, f"_{experiment}_rep", rep)
    getattr(bench, f"run_{experiment}")(
        ExperimentSpec(budget=24.0, generations=2, eval_repeats=2, master_seed=5,
                       jobs=jobs, repetitions=repetitions), out)
    modules = ("multiprocessing", "concurrent.futures.process", "concurrent.futures.thread",
               "numpy.ma")
    print(json.dumps({"pid": os.getpid(), "loaded": [m for m in modules if m in sys.modules]}))
"""


def _report(script: Path, text: str, *args: str) -> dict:
    """Run ``text`` as ``script`` in a fresh interpreter; its printed report."""
    script.write_text(text)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(bench_mod.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    return json.loads(subprocess.run([sys.executable, str(script), *args], env=env, check=True,
                                     timeout=300, stdout=subprocess.PIPE, text=True).stdout)


def _footprint(tmp_path: Path, jobs: int, repetitions: int,
               experiment: str = "compare") -> tuple[Path, dict]:
    """Run the footprint script; its output directory and printed report."""
    out = tmp_path / f"{experiment}-jobs{jobs}-reps{repetitions}"
    return out, _report(tmp_path / "footprint.py", _FOOTPRINT_SCRIPT,
                        str(jobs), str(repetitions), str(out), experiment)


# Run as a script in a fresh interpreter: a paper batch of two seeds on two
# CPUs, which splits, then what the process holds after it. The split's
# check for a multiprocessing child must not load multiprocessing.
_SPLIT_SCRIPT = """
import json, os, sys, threading

from racecma import ScenarioConfig, feedback

os.sched_getaffinity = lambda pid: {0, 1}
_real_lockstep = feedback._lockstep
halves = []


def lockstep(const, runs, n_frames):
    halves.append(threading.current_thread().name)
    _real_lockstep(const, runs, n_frames)


feedback._lockstep = lockstep
feedback.run_episodes(ScenarioConfig(sensing_horizon=0.05), [(1.0, 2.0, 3.0)] * 2, [1, 2])
modules = ("concurrent.futures", "concurrent.futures.thread", "multiprocessing")
print(json.dumps({"halves": halves, "main": threading.current_thread().name,
                  "threads": [thread.name for thread in threading.enumerate()],
                  "loaded": [m for m in modules if m in sys.modules]}))
"""


class TestFootprint:
    """A run loads the process pool's executor only when it uses it, a
    one-process run that calls MAP loads no numpy.ma, and a split batch
    leaves no thread, no executor and no multiprocessing behind."""

    def test_a_split_batch_leaves_only_the_main_thread_and_loads_no_executor(self, tmp_path):
        report = _report(tmp_path / "split.py", _SPLIT_SCRIPT)
        assert len(set(report["halves"])) == 2 and report["main"] in report["halves"]  # it split
        assert report["threads"] == [report["main"]]
        assert report["loaded"] == []  # multiprocessing included

    def test_a_one_process_desk_run_loads_no_executor(self, tmp_path):
        out, report = _footprint(tmp_path, jobs=1, repetitions=1)
        assert report["loaded"] == []
        assert (out / "compare_runs.csv").exists()

    def test_a_one_process_desk_convergence_run_loads_no_executor(self, tmp_path):
        out, report = _footprint(tmp_path, jobs=1, repetitions=1, experiment="convergence")
        assert report["loaded"] == []
        assert (out / "convergence_runs.csv").exists()

    def test_a_pool_run_still_starts_a_pool_and_writes_the_one_process_bytes(self, tmp_path):
        alone, report = _footprint(tmp_path, jobs=1, repetitions=2)
        assert report["loaded"] == []
        pooled, report = _footprint(tmp_path, jobs=2, repetitions=2)
        assert {"multiprocessing", "concurrent.futures.process"} <= set(report["loaded"])
        pids = {int(path.read_text()) for path in tmp_path.glob(f"{pooled.name}-rep*.pid")}
        assert pids and report["pid"] not in pids
        for name in ("compare_runs.csv", "compare_summary.csv", "spec.cfg"):
            assert (pooled / name).read_bytes() == (alone / name).read_bytes(), name


# The tiny run every accepted spec must finish: compare, sweep and converge
# with a 0.032 s horizon, one repetition, one generation and budget 12.
TINY_RUN = {
    "scenario.sensing_horizon": "0.032", "experiment.repetitions": "1",
    "experiment.budget": "12", "experiment.generations": "1",
    "experiment.eval_repeats": "1", "experiment.map_episodes": "1",
}
# Keys that set how much work a run does. A huge value there asks for
# unbounded work by design, so they draw small boundary values only.
WORK_VALUES = {
    "experiment.budget": ["-1", "0", "1", "6", "12", "24"],
    "scenario.sensing_horizon": ["-1", "0", "1e-300", "0.001", "0.032"],
    # Frames per horizon grow as the symbol duration shrinks.
    "scenario.symbol_duration": ["-1", "0", "1e-5", "1e-4", "1e300"],
}
WORK_COUNTS = {
    "experiment.repetitions", "experiment.generations", "experiment.eval_repeats",
    "experiment.map_episodes", "cma.population", "scenario.n_bs_antennas",
    "scenario.n_ue_antennas", "scenario.n_subcarriers", "scenario.n_symbols",
    "scenario.n_beams", "scenario.n_delay_bins", "scenario.n_doppler_bins",
}
WORK_LISTS = {"experiment.power_grid", "experiment.convergence_powers"}
INTS = ["-9223372036854775808", "-1", "0", "1", "2", "9223372036854775807"]
FLOATS = ["0", "-0.0", "-1", "-1e300", "1e300", "1e-300", "0.5", "1", "3", "25", "nan", "-inf"]


def key_values(key: str):
    """Raw config values for one key, drawn from the key's type."""
    entry = schema(ExperimentSpec)[key]
    if key in WORK_VALUES:
        return st.sampled_from(WORK_VALUES[key])
    if entry.item is bool:
        item = st.sampled_from(["true", "false"])
    elif entry.item is str:
        item = st.sampled_from(["MAP", "IPN", "SPSA", "CMA-ES", "RACE-CMA", "FOO"])
    elif entry.item is int:
        item = st.sampled_from(["-1", "0", "1", "2", "3"] if key in WORK_COUNTS else INTS)
    else:
        item = st.sampled_from(FLOATS)
    if entry.pack is None:
        return item
    if entry.count is None:  # a list of any length; an empty one is a syntax error
        sizes = st.integers(0, 3 if key in WORK_LISTS else 4)
    else:  # the right length, one short or one long
        sizes = st.sampled_from([entry.count - 1, entry.count, entry.count + 1])
    return sizes.flatmap(lambda n: st.lists(item, min_size=n, max_size=n)).map(",".join)


def spec_overrides():
    keys = st.lists(st.sampled_from(sorted(schema(ExperimentSpec))),
                    min_size=1, max_size=3, unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: key_values(k) for k in ks}))


class TestCli:
    def test_flagless_spec_equals_benchmark_defaults(self):
        ns = argparse.Namespace(config=None, seed=None, reps=None, budget=None,
                                methods=None, jobs=None)
        assert build_spec(ns) == ExperimentSpec()

    def test_compare_command(self, tmp_path, capsys):
        code = main([
            "compare", "--out", str(tmp_path / "out"), "--reps", "1",
            "--methods", "MAP", "--budget", "6", "--seed", "3",
        ])
        assert code == 0
        assert (tmp_path / "out" / "compare_summary.csv").exists()
        assert "MAP" in capsys.readouterr().out

    def test_config_file_drives_spec(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            """
            experiment.repetitions = 1
            experiment.methods = MAP
            experiment.budget = 6
            scenario.n_symbols = 32
            scenario.n_subcarriers = 24
            scenario.sensing_horizon = 0.32
            """
        )
        code = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        snapshot = (tmp_path / "o" / "spec.cfg").read_text()
        assert "experiment.repetitions = 1" in snapshot

    def test_validate_negative_controls(self, monkeypatch):
        def corrupted_update(state, params, ranked_points, weights_used=None):
            # Shift the covariance below zero: no longer positive definite.
            good = cma_mod.update(state, params, ranked_points, weights_used)
            eig_max = float(np.max(np.linalg.eigvalsh(good.cov)))
            return replace(good, cov=good.cov - 1.5 * eig_max * np.eye(good.dimension))

        monkeypatch.setattr(validate_mod, "update", corrupted_update)
        ok, results = validate()
        assert not ok
        failed = {r.name for r in results if not r.passed}
        assert "cma-invariants" in failed

    def test_validate_ledger_tamper_detected(self, monkeypatch):
        add = CostLedger.add

        def drop_stage1(self, weight, kind="full"):
            if kind != "stage1":
                add(self, weight, kind)

        monkeypatch.setattr(CostLedger, "add", drop_stage1)
        ok, results = validate()
        assert not ok
        failed = {r.name for r in results if not r.passed}
        assert "cost-identity" in failed

    def test_validate_full_spec_adds_the_monte_carlo_checks(self, tmp_path):
        # The three comparisons run on the spec given (here a few seconds'
        # worth); whether they pass at this size is not the point.
        spec = ExperimentSpec(
            scenario=desk_scenario(sensing_horizon=0.032), repetitions=1, budget=24.0,
            generations=4, eval_repeats=1, power_grid=(10.0, 30.0), map_min_samples=2,
            map_episodes=1,
        )
        _, results = validate(spec, tmp_path)
        assert len(results) == 12
        assert [r.name for r in results[9:]] == [
            "efficiency-ordering", "convergence-direction", "sweep-direction"]
        assert (tmp_path / "sweep" / "sweep_runs.csv").exists()

    @pytest.mark.parametrize("changes, message", [
        ({"methods": ("MAP", "IPN", "CMA-ES", "RACE-CMA")}, "the methods lack SPSA$"),
        ({"generations": 3}, "reads generation 4; experiment.generations is 3$"),
    ])
    def test_validate_rejects_a_full_spec_its_checks_cannot_read(self, monkeypatch, changes,
                                                                  message):
        # It raises before the quick checks and before any experiment runs.
        def never(*args, **kwargs):
            raise AssertionError("ran on a full spec its checks cannot read")

        for name in ("check_cost_identity", "run_compare", "run_convergence", "run_sweep"):
            monkeypatch.setattr(validate_mod, name, never)
        with pytest.raises(ValueError, match=message):
            validate(replace(ExperimentSpec(), **changes))

    def test_validate_scratch_dir_removes_only_its_own(self, tmp_path):
        # Without a scratch directory a check writes into a temporary one
        # that is gone when the check returns; a given directory keeps its files.
        with validate_mod._scratch_dir(None) as base:
            (base / "a").mkdir()
            (base / "a" / "compare_runs.csv").write_text("x")
        assert not base.exists()
        with validate_mod._scratch_dir(tmp_path) as base:
            (base / "compare_runs.csv").write_text("x")
        assert base == tmp_path and (tmp_path / "compare_runs.csv").read_text() == "x"

    @pytest.mark.parametrize("flags", [
        ["--config", "x.cfg"], ["--seed", "3"], ["--reps", "1"], ["--budget", "12"],
        ["--methods", "MAP"], ["--jobs", "2"],
    ])
    def test_validate_rejects_spec_flags_without_full(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", *flags])
        assert exc.value.code == 2
        assert f"only apply with --full: {flags[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--methods", "FOO"], "unknown methods: ['FOO']"),
        (["--reps", "0"], "repetitions must be >= 1"),
        (["--budget", "0"], "budget must be positive"),
        (["--config", "missing.cfg"], "No such file or directory"),
        (["--jobs", "0"], "jobs must be >= 1"),
        (["--config", "cma.population = 1"], "population must be >= 2"),
        (["--config", "experiment.init_sigma = 0"], "init_sigma must be positive"),
        (["--config", "experiment.sweep_stage2_repetitions = 0"],
         "sweep_stage2_repetitions must be >= 1"),
        (["--config", "experiment.convergence_powers = 35"],
         "convergence powers outside the scenario power range"),
        (["--methods", "CMA-ES", "--config", "cma.population = 13"],
         "population must be even while racing.mirrored_sampling is on"),
        (["--config", "experiment.power_grid = 20"], "power_grid needs at least two points"),
        (["--config", "experiment.generations = 0"], "generations must be >= 1"),
        # Ids kept from when one message named both fields.
        pytest.param(["--config", "ipn.fd_step = 0"], "fd_step must be positive",
                     id="flags12-fd_step and barrier_init must be positive"),
        (["--config", "ipn.barrier_shrink = 0"], "barrier_shrink must be > 1"),
        (["--config", "spsa.stability = -5"], "stability must be >= 0"),
        (["--config", "experiment.fixed_thresholds = 3,2,1"],
         "fixed_thresholds must be ordered"),
        (["--config", "scenario.symbol_duration = 0.01"],
         "doppler_window outside the unambiguous range"),
        (["--config", "scenario.delay_window = 0.05e-6,1e-3"],
         "delay_window outside the unambiguous range"),
        (["--config", "experiment.ue_box = 0,0,0,0"], "ue_box must have positive extent"),
        (["--config", "experiment.ue_box = 20,-20,15,5"], "ue_box must have positive extent"),
        (["--config", "experiment.resi_bounds = 6,0.05"], "resi_bounds must be ordered"),
        (["--config", "weights.detection = 0\nweights.latency = 0\nweights.power = 0"],
         "weights must be nonnegative and not all zero"),
        (["--config", "weights.power = -1"], "weights must be nonnegative and not all zero"),
        (["--config", "experiment.sweep_weights = 0,0,0"],
         "weights must be nonnegative and not all zero"),
        pytest.param(["--config", "scenario.carrier_freq = 0"], "carrier_freq must be positive",
                     id="flags24-carrier_freq and subcarrier_spacing must"),
        (["--config", "scenario.noise_bandwidth_scale = 0"],
         "noise power per resource element must lie in (1e-300, inf) W"),
        (["--config", "scenario.noise_bandwidth_scale = -1"],
         "noise power per resource element must lie in (1e-300, inf) W"),
        (["--config", "experiment.map_min_samples = 0"], "map_min_samples must be >= 1"),
        (["--config", "experiment.map_min_samples = -5"], "map_min_samples must be >= 1"),
        (["--config", "scenario.heading_jitter = -1"], "heading_jitter must be >= 0"),
        (["--config", "scenario.noise_figure_db = 1e300"],
         "noise power per resource element must lie in (1e-300, inf) W"),
        (["--config", "scenario.tx_power_range_dbm = 10,1e300"],
         "tx_power_range_dbm exceeds the float range in watts"),
        (["--config", "ipn.fd_step = 1e300"], "fd_step squared"),
        (["--config", "ipn.fd_step = 1e-300"], "fd_step squared"),
        (["--config", "experiment.resi_bounds = 1e300,1e300"],
         "racing.min_spacing vanishes in rounding"),
        (["--config", "experiment.resi_bounds = 3,3\nracing.min_spacing = 1e-300"],
         "racing.min_spacing vanishes in rounding"),
        (["--config", "scenario.carrier_freq = nan"], "expects finite values"),
        (["--config", "scenario.bs_position = 1e300,0"],
         "must lie within finite distances of each other"),
        (["--config", "scenario.target_speed = 1e300"],
         "target_speed * frame_duration must not exceed the region's shorter side"),
        (["--config", "scenario.carrier_freq = 1e-300"], "the wavelength overflows"),
        (["--config", "scenario.region = -1e200,1e200,25,75"],
         "must lie within finite distances of each other"),
        # Unchecked, inf never ends SPSA's loop and nan runs IPN alone.
        (["--budget", "inf"], "budget must be finite and real"),
        (["--budget", "nan"], "budget must be finite and real"),
    ])
    def test_bad_spec_input_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                             flags, message):
        monkeypatch.chdir(tmp_path)
        if "=" in flags[-1]:  # config lines: run with a file that holds them
            Path("bad.cfg").write_text(flags[-1] + "\n")
            flags = [*flags[:-1], "bad.cfg"]
        with pytest.raises(SystemExit) as exc:
            main(["compare", *flags, "--out", "o"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [
        ["compare", "--reps", "1", "--methods", "CMA-ES", "--budget", "12"], ["validate"],
    ])
    @pytest.mark.parametrize("out", ["taken", "taken/o"])
    def test_bad_out_is_a_usage_error(self, tmp_path, monkeypatch, capsys, command, out):
        # An existing file, or a path under one, fails before any repetition runs.
        def never(*args, **kwargs):
            raise AssertionError("ran with an unusable --out")

        monkeypatch.setattr(cli_mod, "run_compare", never)
        monkeypatch.setattr(cli_mod, "validate", never)
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("kept\n")
        with pytest.raises(SystemExit) as exc:
            main([*command, "--out", out])
        assert exc.value.code == 2
        assert "taken" in capsys.readouterr().err
        assert Path("taken").read_text() == "kept\n"

    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment.budgett = 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unknown config key(s): experiment.budgett" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_validate_full_bad_config_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--full", "--config", str(tmp_path / "missing.cfg")])
        assert exc.value.code == 2
        assert "missing.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("methods, lacking", [
        ("MAP", "IPN, SPSA, CMA-ES, RACE-CMA"), ("IPN,SPSA,CMA-ES", "RACE-CMA"),
    ])
    def test_validate_full_needs_the_ordering_methods(self, methods, lacking, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--full", "--methods", methods, "--reps", "1", "--budget", "12"])
        assert exc.value.code == 2
        assert f"the methods lack {lacking}" in capsys.readouterr().err

    def test_validate_full_needs_generation_four(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment.generations = 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--full", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--full reads generation 4" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(overrides=spec_overrides())
    def test_any_spec_is_rejected_or_runs_to_the_end(self, overrides):
        cfg = {**TINY_RUN, **overrides}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
            args = argparse.Namespace(config=path, seed=None, reps=None, budget=None,
                                      methods=None, jobs=None)
            try:
                build_spec(args)
                rejected = False
            except ValueError:
                rejected = True
            for command in ("compare", "sweep", "converge"):
                out = Path(tmp) / command
                if rejected:
                    with pytest.raises(SystemExit) as exc:
                        main([command, "--config", str(path), "--out", str(out)])
                    assert exc.value.code == 2
                    assert not out.exists()
                else:
                    assert main([command, "--config", str(path), "--out", str(out)]) == 0
