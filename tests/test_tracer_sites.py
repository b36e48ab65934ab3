"""The names the benchmark tracer wraps must exist on the package.

``perfbench/tracer.py`` replaces module attributes by name, so a refactor
that drops or renames one only fails once the traced benchmark runs. This
test loads the tracer by path, without importing the rest of the harness.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(f"racecma.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_site_resolves():
    tracer = _load_tracer()
    missing = []
    for module_name, attr, _layer in tracer.SITES:
        try:
            _resolve(module_name, attr)
        except AttributeError:
            missing.append(f"racecma.{module_name}.{attr}")
    assert missing == []


def test_run_probe_names_resolve():
    # RunProbe swaps these two for recording versions in every worker.
    for attr in ("IsacObjective", "run_method"):
        assert callable(_resolve("bench", attr))


def test_tracer_counts_every_method_of_a_compare(tmp_path, monkeypatch):
    # A name wrapped on ``bench`` but bound elsewhere at import would count
    # no calls and zero its metrics without any error, so the optimizers
    # must be looked up through ``bench`` when a run starts.
    tracer_mod = _load_tracer()
    bench = importlib.import_module("racecma.bench")
    scenario = importlib.import_module("racecma.scenario")
    for attr in ("IsacObjective", "run_method"):  # restored after the test
        monkeypatch.setattr(bench, attr, getattr(bench, attr))
    spec = bench.ExperimentSpec(
        scenario=scenario.desk_scenario(sensing_horizon=0.032), repetitions=1, budget=24.0,
        generations=1, eval_repeats=1, map_min_samples=2, map_episodes=1, master_seed=3,
    )
    probe = tracer_mod.RunProbe()
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        bench.run_compare(spec, tmp_path)
    finally:
        tracer.close()
    calls = {name: stat[0] for name, stat in tracer.stats.items()}
    for name in ("bench.run_method", "race.race_cma_optimize", "baselines.ipn_optimize",
                 "baselines.spsa_optimize", "baselines.map_calibrate"):
        assert calls[name] >= 1, name
    assert len(probe.runs) == 5
    assert probe.take()[2] == 0
