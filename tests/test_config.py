import argparse
import hashlib
import math
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, reject, settings, strategies as st

from racecma import RacingConfig, ScenarioConfig
from racecma.bench import METHODS, ExperimentSpec, _run
from racecma.cli import build_spec, main
from racecma.config import (
    ConfigError,
    _apply,
    _get,
    config_hash,
    key_table,
    load_config,
    parse_kv,
    schema,
    spec_from_config,
    spec_to_config,
)
from racecma.feedback import DEFAULT_ACTIONS
from racecma.scenario import field_items

SCHEMA = schema(ExperimentSpec)
README = Path(__file__).resolve().parents[1] / "README.md"


def write_snapshot(spec: ExperimentSpec, out: Path) -> None:
    """Write ``spec.cfg`` as every run does: an experiment whose reps yield no rows."""
    _run(spec, out, "empty", lambda spec, rep: [], (), lambda spec, runs: [], ())


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

    def test_cast_keeps_unequal_specs_apart(self):
        # int(1.5) is the default master seed 1, but 1.5 must not read as the
        # default. ExperimentSpec now rejects a non-integral seed, so the
        # key's spelling is checked on its own.
        default = spec_to_config(ExperimentSpec())
        odd = {**default, "experiment.master_seed": SCHEMA["experiment.master_seed"].format(1.5)}
        assert odd["experiment.master_seed"] == "1.5"
        assert config_hash(odd) != config_hash(default)


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
            # +2 for keys that take even values only (cma.population).
            options = [str(int(part) + d) for d in (1, -1, 2)]
        else:
            # Relative steps: an absolute one would push the 1e-7 s delay
            # window out of its unambiguous range.
            x = float(part)
            options = [str(x * 1.01 if x else 0.01), str(x * 0.99 if x else -0.01)]
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


# Values of the wrong kind for an entry of each annotated type.
_WRONG = {int: (None, "1", True, 1.5), float: (None, "1", True), bool: (None, "no", 2),
          str: (None, 1, True)}


def _wrong_kinds(cls: type, default, path: tuple = ()):
    """(attribute path, value) pairs that put a value of the wrong kind in
    one field, or one tuple entry, of ``cls`` or of a config object in it:
    each of ``_WRONG``, a string or None for a config object, a list or a
    tuple one entry too long or short for a tuple."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        hint, at, value = hints[f.name], path + (f.name,), getattr(default, f.name)
        if is_dataclass(hint):
            yield from ((at, bad) for bad in (None, "x"))
            yield from _wrong_kinds(hint, value, at)
        elif get_origin(hint) is tuple:
            yield at, list(value)
            if get_args(hint)[-1] is not Ellipsis:
                yield from ((at, bad) for bad in (value + value[-1:], value[:-1]))
            yield from ((at + (i,), bad) for i in range(len(value))
                        for bad in _WRONG[get_args(hint)[0]])
        else:
            yield from ((at, bad) for bad in _WRONG[hint])


WRONG_KINDS = list(_wrong_kinds(ExperimentSpec, ExperimentSpec()))


@pytest.mark.parametrize("path, value", WRONG_KINDS, ids=[
    f"{'.'.join(map(str, path))}={value!r}" for path, value in WRONG_KINDS])
def test_every_field_rejects_a_wrong_kind(path, value):
    # Each value fails at its first use or mid-run, or is one that spec.cfg
    # cannot read back: the constructor must reject it, naming the field.
    name = next(step for step in reversed(path) if isinstance(step, str))
    with pytest.raises(ValueError, match=f"^{name} must "):
        _apply(ExperimentSpec(), {path: value})


def _past_bounds(cls: type, path: tuple = ()):
    """(attribute path, value) pairs that put a value just past one end of
    its range in one bounded field, or one entry of a bounded tuple field, of
    ``cls`` or of a config object in it: the end itself where it is open, the
    next integer or float past it where it is closed."""
    for name, item, count, is_tuple, bound in field_items(cls):
        at = path + (name,)
        if is_dataclass(item):
            yield from _past_bounds(item, at)
            continue
        if bound is None:
            continue
        past = []
        for end, closed, way in ((bound.lo, bound.ends[0] == "[", -1),
                                 (bound.hi, bound.ends[1] == "]", 1)):
            if end is None:
                continue
            if not closed:
                past.append(item(end))
            else:
                past.append(end + way if item is int else math.nextafter(end, way * math.inf))
        entries = [at + (i,) for i in range(count)] if is_tuple else [at]
        yield from ((entry, value) for entry in entries for value in past)


PAST_BOUNDS = list(_past_bounds(ExperimentSpec))


@pytest.mark.parametrize("path, value", PAST_BOUNDS, ids=[
    f"{'.'.join(map(str, path))}={value!r}" for path, value in PAST_BOUNDS])
def test_every_bounded_field_rejects_a_value_past_its_bound(path, value):
    # A range is read from the field's annotation and nowhere else: each
    # value just past an end must be rejected by a message that names the
    # field, on the spec and through the key that spells it.
    name = next(step for step in reversed(path) if isinstance(step, str))
    with pytest.raises(ValueError, match=f"^{name} must "):
        _apply(ExperimentSpec(), {path: value})
    key = next((k for k, entry in SCHEMA.items() if entry.path in (path, path[:-1])), None)
    if key is None:
        assert path == ("jobs",)  # the only field no file sets
        return
    entry = SCHEMA[key]
    whole = value
    if entry.path != path:  # one entry of a tuple key
        whole = list(_get(ExperimentSpec(), entry.path))
        whole[path[-1]] = value
    with pytest.raises(ValueError, match=f"^{name} must "):
        spec_from_config({key: entry.format(whole)}, ExperimentSpec())


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


def _respell(value):
    """An equal value of another type: whole floats and bools as ints."""
    if isinstance(value, tuple):
        return tuple(map(_respell, value))
    if is_dataclass(value):
        return type(value)(*(_respell(getattr(value, f.name)) for f in fields(value)))
    if isinstance(value, bool) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    return value


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
        write_snapshot(spec, tmp_path)
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

    @pytest.mark.parametrize("key", sorted(k for k, entry in SCHEMA.items()
                                           if entry.item is float))
    def test_every_float_entry_rejects_non_finite_values(self, key):
        # No config file can spell inf or nan, so a constructor that took one
        # would build a spec whose spec.cfg no experiment reads back, or one
        # that runs to nan echo strengths. Each entry of a list or a value
        # type is set on its own, and the error must say that the value is
        # not finite, not that some range check derived from it failed.
        spec = ExperimentSpec()
        entry = SCHEMA[key]
        value = _get(spec, entry.path)
        if entry.pack is None:
            paths = [entry.path]
        elif entry.pack is tuple:
            paths = [entry.path + (i,) for i in range(len(value))]
        else:
            paths = [entry.path + (f.name,) for f in fields(value)]
        unexplained = []
        for path in paths:
            for bad in (math.nan, math.inf, -math.inf):
                try:
                    _apply(spec, {path: bad})
                except ValueError as error:
                    if "finite" in str(error):
                        continue
                unexplained.append((path[-1], bad))
        assert unexplained == []

    def test_spec_snapshot_golden(self, tmp_path):
        write_snapshot(ExperimentSpec(repetitions=1, master_seed=1, jobs=1), tmp_path)
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
            write_snapshot(spec, Path(tmp))
            args = argparse.Namespace(config=Path(tmp) / "spec.cfg", seed=None, reps=None,
                                      budget=None, methods=None, jobs=None)
            reloaded = build_spec(args)
            header = (Path(tmp) / "spec.cfg").read_text().splitlines()[0]
        assert reloaded == spec
        assert header == f"# config_hash={config_hash(spec_to_config(reloaded))}"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equal_specs_write_equal_snapshots(self, data):
        # Respelling a whole-number float as an int, or a bool as 0 or 1,
        # gives an equal spec, which must not move config_hash.
        keys = data.draw(st.lists(st.sampled_from(sorted(SCHEMA)), max_size=3, unique=True))
        cfg = {key: data.draw(_other_values(key), label=key) for key in keys}
        try:
            spec = spec_from_config(cfg, ExperimentSpec())
        except ValueError:
            reject()
        respelled = data.draw(st.lists(st.sampled_from(sorted(SCHEMA)), min_size=1,
                                       unique=True), label="respelled")
        twin = _apply(spec, {SCHEMA[k].path: _respell(_get(spec, SCHEMA[k].path))
                             for k in respelled})
        assert twin == spec
        snapshots = []
        for each in (spec, twin):
            with tempfile.TemporaryDirectory() as tmp:
                write_snapshot(each, Path(tmp))
                snapshots.append((Path(tmp) / "spec.cfg").read_bytes())
        assert snapshots[0] == snapshots[1]

    def test_readme_key_table_matches_schema(self):
        readme = README.read_text(encoding="utf-8")
        table = readme.split("<!-- config-keys:begin -->\n", 1)[1]
        table = table.split("\n<!-- config-keys:end -->", 1)[0]
        assert table == key_table(ExperimentSpec()), (
            "README key table is stale; paste the output of "
            "racecma.config.key_table(racecma.bench.ExperimentSpec())"
        )

    def test_readme_quick_start_runs(self):
        # The example imports only from the package top level, so it also
        # guards the names kept there.
        section = README.read_text(encoding="utf-8").split("## Quick start (library)\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        assert namespace["result"].n_eq == 72.0
