import argparse
import hashlib
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, reject, settings, strategies as st

from racecma import RacingConfig, ScenarioConfig
from racecma.bench import METHODS, ExperimentSpec, _write_spec_snapshot
from racecma.cli import build_spec, main
from racecma.config import (
    ConfigError,
    config_hash,
    key_table,
    load_config,
    parse_kv,
    schema,
    spec_from_config,
    spec_to_config,
)
from racecma.feedback import DEFAULT_ACTIONS

SCHEMA = schema(ExperimentSpec)


class TestParse:
    def test_basic_lines_and_comments(self):
        text = """
        # a comment
        scenario.n_beams = 10   # trailing comment
        racing.fidelity_ratio = 0.2
        """
        cfg = parse_kv(text)
        assert cfg == {"scenario.n_beams": "10", "racing.fidelity_ratio": "0.2"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv("scenario.n_beams 10")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv("a.b = 1\na.b = 2")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv("a.b =")

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "test.cfg"
        path.write_text("scenario.tx_power_dbm = 25\n")
        assert load_config(path) == {"scenario.tx_power_dbm": "25"}


class TestBuilders:
    def test_scenario_overrides(self):
        base = ExperimentSpec(scenario=ScenarioConfig())
        cfg = parse_kv(
            """
            scenario.n_beams = 10
            scenario.tx_power_dbm = 25
            scenario.sweep_range = 0.8,2.2
            scenario.region = -10,10,20,40
            scenario.scattering_gain = 50
            """
        )
        sc = spec_from_config(cfg, base).scenario
        assert sc.n_beams == 10
        assert sc.tx_power_dbm == 25.0
        assert sc.sweep_range == (0.8, 2.2)
        assert sc.region.x_min == -10 and sc.region.y_max == 40
        assert sc.gain_model.scattering_gain == 50.0
        assert sc.n_bs_antennas == base.scenario.n_bs_antennas  # untouched default

    def test_unknown_scenario_key_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_config({"scenario.bogus": "1"}, ExperimentSpec())

    def test_actions_and_weights(self):
        cfg = parse_kv(
            """
            actions.power_factors = 1.0,0.9,0.6,0.3
            actions.period_multipliers = 1,1,2,4
            weights.latency = 0.5
            """
        )
        spec = spec_from_config(cfg, ExperimentSpec(actions=DEFAULT_ACTIONS, weights=(1.0, 0.0, 0.0)))
        assert spec.actions.power_factors == (1.0, 0.9, 0.6, 0.3)
        assert spec.actions.period_multipliers == (1, 1, 2, 4)
        assert spec.weights == (1.0, 0.5, 0.0)

    def test_racing_overrides(self):
        cfg = parse_kv(
            """
            racing.promotion_fraction = 0.25
            racing.mirrored_sampling = false
            racing.repetitions = 3
            """
        )
        racing = spec_from_config(cfg, ExperimentSpec(racing=RacingConfig())).racing
        assert racing.promotion_fraction == 0.25
        assert racing.mirrored_sampling is False
        assert racing.repetitions == 3
        assert racing.fidelity_ratio == RacingConfig().fidelity_ratio

    def test_optimizer_configs(self):
        spec = spec_from_config(parse_kv("ipn.fd_step = 0.1\nspsa.a = 0.8"), ExperimentSpec())
        assert spec.ipn.fd_step == 0.1
        assert spec.spsa.a == 0.8

    def test_invalid_values_propagate(self):
        with pytest.raises(ValueError):
            spec_from_config({"racing.promotion_fraction": "1.5"}, ExperimentSpec())


class TestHash:
    def test_stable_and_order_insensitive(self):
        a = {"x.y": "1", "a.b": "2"}
        b = {"a.b": "2", "x.y": "1"}
        assert config_hash(a) == config_hash(b)
        assert len(config_hash(a)) == 12

    def test_sensitive_to_values(self):
        assert config_hash({"a.b": "1"}) != config_hash({"a.b": "2"})


def _changed_values(key: str):
    """Spellings of the default value of ``key`` with one entry changed."""
    entry = SCHEMA[key]
    parts = spec_to_config(ExperimentSpec())[key].split(",")
    if entry.item is str:
        yield ",".join(parts[:-1])
        return
    for i, part in enumerate(parts):
        if entry.item is bool:
            options = [str(part != "true").lower()]
        elif entry.item is int:
            options = [str(int(part) + 1), str(int(part) - 1)]
        else:
            options = [str(float(part) * 1.01 + 0.01), str(float(part) * 0.99 - 0.01)]
        for new in options:
            yield ",".join(parts[:i] + [new] + parts[i + 1:])


def _field_paths(cls: type, path: tuple = ()):
    """Attribute path of every dataclass field reachable from ``cls``."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from _field_paths(hints[f.name], path + (f.name,))
        else:
            yield path + (f.name,)


def _other_values(key: str):
    """Strategy for non-default spellings of ``key``, of the schema's type and count."""
    entry = SCHEMA[key]
    parts = spec_to_config(ExperimentSpec())[key].split(",")
    if entry.item is str:
        return st.lists(st.sampled_from(METHODS), min_size=1, max_size=len(METHODS),
                        unique=True).map(",".join)
    if entry.item is bool:
        return st.just(str(parts[0] != "true").lower())

    def one(part: str):
        if entry.item is int:
            return st.integers(1, 3).map(lambda d: str(int(part) + d))
        x = float(part)
        rel = st.builds(lambda sign, size: sign * size, st.sampled_from((-1, 1)),
                        st.floats(1e-3, 1e-2))
        return rel.map(lambda e: str(x * (1 + e) if x else e))

    values = st.tuples(*map(one, parts))
    if entry.count is None:
        values = st.tuples(values, st.integers(1, len(parts))).map(lambda v: v[0][: v[1]])
    return values.map(",".join)


class TestSchema:
    @pytest.mark.parametrize("line", [
        "experiment.budgett = 5", "foo.bar = 1", "weights.detecton = 2",
        "actions.bogus = 1", "cma.sigma = 3",
        "ipn.armijo = 0.5", "ipn.backtrack = 0.5", "ipn.max_backtracks = 3",
    ])
    def test_unknown_keys_rejected_through_cli(self, tmp_path, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, raw", [
        ("experiment.resi_bounds", "1"),
        ("experiment.sweep_weights", "1.0,0.5"),
        ("experiment.fixed_thresholds", "1,2,3,4"),
        ("scenario.region", "-10,10,20"),
        ("actions.period_multipliers", "1,1,2"),
        ("experiment.power_grid", "10,,20"),
        ("scenario.n_beams", "1.5"),
        ("racing.mirrored_sampling", "maybe"),
    ])
    def test_malformed_values_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=key):
            spec_from_config({key: raw}, ExperimentSpec())

    def test_list_values_may_hold_spaces(self, tmp_path):
        spec = spec_from_config({"experiment.methods": "MAP, IPN",
                                 "experiment.power_grid": "10.0, 20.0"}, ExperimentSpec())
        assert spec.methods == ("MAP", "IPN")
        assert spec.power_grid == (10.0, 20.0)
        _write_spec_snapshot(spec, tmp_path)
        assert "experiment.methods = MAP,IPN\n" in (tmp_path / "spec.cfg").read_text()

    def test_cli_methods_may_hold_spaces(self):
        args = argparse.Namespace(config=None, seed=None, reps=None, budget=None,
                                  methods="MAP, IPN", jobs=None)
        assert build_spec(args).methods == ("MAP", "IPN")

    def test_accepted_keys_are_the_snapshot_keys(self):
        spec = ExperimentSpec()
        snapshot = spec_to_config(spec)
        assert set(SCHEMA) == set(snapshot)
        for key, raw in snapshot.items():
            assert spec_from_config({key: raw}, spec) == spec

    def test_every_spec_field_is_a_key_but_jobs(self):
        # A field no key covers could change results without moving
        # config_hash. A key covers a whole value type (``scenario.region``)
        # or one item of a tuple (``weights.latency``).
        def covered(path):
            return any(path[:len(k.path)] == k.path[:len(path)] for k in SCHEMA.values())

        unfiled = [".".join(p) for p in _field_paths(ExperimentSpec) if not covered(p)]
        assert unfiled == ["jobs"], f"spec fields outside spec.cfg: {unfiled}"

    @pytest.mark.parametrize("key", sorted(SCHEMA))
    def test_every_key_moves_the_hash(self, key):
        base = ExperimentSpec()
        base_hash = config_hash(spec_to_config(base))
        if key == "scenario.n_targets":  # the only valid value is the default
            with pytest.raises(ValueError):
                spec_from_config({key: "2"}, base)
            return
        for raw in _changed_values(key):
            try:
                changed = spec_from_config({key: raw}, base)
            except ValueError:
                continue
            assert changed != base
            assert config_hash(spec_to_config(changed)) != base_hash
            return
        pytest.fail(f"no valid non-default value found for {key}")

    def test_spec_snapshot_golden(self, tmp_path):
        _write_spec_snapshot(ExperimentSpec(repetitions=1, master_seed=1, jobs=1), tmp_path)
        digest = hashlib.sha256((tmp_path / "spec.cfg").read_bytes()).hexdigest()
        assert digest == "5458fb6dc366cd055a20c8c9403f47359488fe43af6446651fae914e500e7e72"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_snapshot_round_trip(self, data):
        keys = data.draw(st.lists(st.sampled_from(sorted(SCHEMA)), min_size=1, max_size=3,
                                  unique=True))
        cfg = {key: data.draw(_other_values(key), label=key) for key in keys}
        try:
            spec = spec_from_config(cfg, ExperimentSpec())
        except ValueError:
            reject()
        with tempfile.TemporaryDirectory() as tmp:
            _write_spec_snapshot(spec, Path(tmp))
            args = argparse.Namespace(config=Path(tmp) / "spec.cfg", seed=None, reps=None,
                                      budget=None, methods=None, jobs=None)
            reloaded = build_spec(args)
            header = (Path(tmp) / "spec.cfg").read_text().splitlines()[0]
        assert reloaded == spec
        assert header == f"# config_hash={config_hash(spec_to_config(reloaded))}"

    def test_readme_key_table_matches_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("<!-- config-keys:begin -->\n", 1)[1]
        table = table.split("\n<!-- config-keys:end -->", 1)[0]
        assert table == key_table(ExperimentSpec()), (
            "README key table is stale; paste the output of "
            "racecma.config.key_table(racecma.bench.ExperimentSpec())"
        )
