import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from racecma import cma as cma_mod
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
from racecma.cli import main
from racecma.objective import CostLedger
from racecma.validate import validate


def tiny_spec(**overrides) -> ExperimentSpec:
    params = dict(
        repetitions=2, methods=("MAP", "RACE-CMA"), budget=18.0,
        generations=2, eval_repeats=2, master_seed=7,
    )
    params.update(overrides)
    return ExperimentSpec(**params)


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

    def test_methods_share_environment_within_rep(self):
        spec = tiny_spec()
        a, t0, seeds, opt_seed = _rep_env(spec, 0)
        b, *_ = _rep_env(spec, 0)
        assert a.ue_position == b.ue_position
        assert _rep_env(spec, 1)[0].ue_position != a.ue_position
        delta = spec.racing.min_spacing
        assert t0.t1 + delta <= t0.t2 and t0.t2 + delta <= t0.t3
        # Another experiment's tag and power move the seeds only.
        swept, t0_swept, seeds_swept, opt_swept = _rep_env(spec, 0, "sweep-", 20.0)
        assert swept.ue_position == a.ue_position and t0_swept == t0
        assert swept.tx_power_dbm == 20.0
        assert not set(seeds_swept) & set(seeds) and opt_swept != opt_seed


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

    def test_assess_excludes_nothing_by_default(self, desk):
        from racecma import ThresholdVector

        j_det, j_lat, j_pow = assess(desk, tiny_spec().actions,
                                     ThresholdVector(0.5, 1.0, 1.5), seeds=[1, 2])
        assert 0.0 <= j_det <= 1.0 and 0.0 <= j_lat <= 1.0 and 0.0 <= j_pow <= 1.0

    def test_unknown_method_rejected(self, desk):
        spec = tiny_spec()
        with pytest.raises(ValueError):
            run_method("NEWTON", desk, spec, spec.fixed_thresholds, 1)
        with pytest.raises(ValueError):
            ExperimentSpec(methods=("GRADIENT",))

    @pytest.mark.parametrize("field, value, message", [
        ("budget", -1.0, "budget must be positive"),
        ("budget", 0.0, "budget must be positive"),
        ("eval_repeats", 0, "eval_repeats must be >= 1"),
        ("map_episodes", 0, "map_episodes must be >= 1"),
    ])
    def test_meaningless_specs_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            tiny_spec(**{field: value})

    def test_spec_config_covers_scenario_and_experiment(self):
        cfg = spec_to_config(tiny_spec())
        assert cfg["scenario.n_bs_antennas"] == "32"
        assert cfg["experiment.budget"] == "18.0"
        assert cfg["racing.truncation"] == "0.8"


class TestCli:
    def test_flagless_spec_equals_benchmark_defaults(self):
        import argparse

        from racecma.cli import build_spec

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
        ok, results = validate(level="quick")
        assert not ok
        failed = {r.name for r in results if not r.passed}
        assert "cma-invariants" in failed

    def test_validate_ledger_tamper_detected(self, monkeypatch):
        add = CostLedger.add

        def drop_stage1(self, weight, kind="full"):
            if kind != "stage1":
                add(self, weight, kind)

        monkeypatch.setattr(CostLedger, "add", drop_stage1)
        ok, results = validate(level="quick")
        assert not ok
        failed = {r.name for r in results if not r.passed}
        assert "cost-identity" in failed

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
        (["--config", "ipn.fd_step = 0"], "fd_step and barrier_init must be positive"),
        (["--config", "ipn.barrier_shrink = 0"], "barrier_shrink must be > 1"),
        (["--config", "spsa.stability = -5"], "stability must be >= 0"),
        (["--config", "experiment.fixed_thresholds = 3,2,1"],
         "fixed_thresholds must be ordered"),
        (["--config", "scenario.symbol_duration = 0.01"],
         "doppler_window outside the unambiguous range"),
        (["--config", "scenario.delay_window = 0.05e-6,1e-3"],
         "delay_window outside the unambiguous range"),
    ])
    def test_bad_spec_input_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                             flags, message):
        monkeypatch.chdir(tmp_path)
        if "=" in flags[-1]:  # a config line: run with a file that holds it
            Path("bad.cfg").write_text(flags[-1] + "\n")
            flags = [*flags[:-1], "bad.cfg"]
        with pytest.raises(SystemExit) as exc:
            main(["compare", *flags, "--out", "o"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
