"""Every ``spec.cfg`` key acts: a perturbation of it, chosen to act, moves
some CSV body (the lines after the ``#`` comment) of a tiny spec's compare,
sweep or convergence run. A key that cannot is listed in ``INERT`` with its
reason, and its perturbation must then move no body; a key that takes one
value only is listed in ``FIXED``. ``jobs`` is no key: it sets the process
count alone, and ``tests/test_bench.py::TestFootprint`` holds a pool run
to a one-process run's bytes. The sweep over every key takes about two
minutes, so it is marked slow."""

from pathlib import Path

import pytest

from racecma.bench import ExperimentSpec, run_compare, run_convergence, run_sweep
from racecma.config import schema, spec_from_config, spec_to_config

SCHEMA = schema(ExperimentSpec)

# A spec whose three experiments take about a second together, and where
# each knob still has something to act on: IPN and SPSA afford a round
# (budget 30), stage 2 repeats (so the variance weighting acts), the echo
# has its specular path (so the nlos_* keys act), and the target reflects
# off the walls of a 1 m region (so the heading jitter acts).
TINY = {
    "experiment.repetitions": "1",
    "experiment.eval_repeats": "4",
    "experiment.budget": "30",
    "experiment.generations": "3",
    "cma.population": "6",
    "experiment.map_episodes": "2",
    "experiment.power_grid": "10,20",
    "experiment.convergence_powers": "20",
    "racing.repetitions": "2",
    "scenario.nlos_path_count": "1",
    "scenario.region": "-0.5,0.5,49.5,50.5",
}

# The value each key is set to, where the rule in _perturbed (an int one
# up, a float a quarter up, a bool flipped, every entry of a tuple so) would
# not act or would break a cross-field check.
CHOSEN = {
    "experiment.methods": "RACE-CMA,MAP",
    "experiment.power_grid": "10,25",
    "experiment.convergence_powers": "25",
    "experiment.fixed_thresholds": "1,2,3",
    "experiment.map_min_samples": "2",  # calibration no longer falls back to the start
    "experiment.ue_box": "-20,20,30,40",
    "experiment.resi_bounds": "0.5,3",
    "experiment.sweep_weights": "1,0,0",
    "cma.population": "8",  # mirrored sampling takes an even population
    "actions.power_factors": "1,1,1,1",
    "actions.period_multipliers": "2,1,1,1",
    "ipn.barrier_init": "10",
    "ipn.outer_rounds": "1",
    "racing.min_spacing": "2",
    "racing.promotion_fraction": "0.1",
    "racing.weighting_floor": "1",
    "racing.truncation": "0.3",
    "racing.diagonal_warmup_generations": "0",
    "scenario.bs_position": "1,-1",
    "scenario.sweep_range": "0.5,2.5",
    "scenario.tx_power_dbm": "25",
    "scenario.tx_power_range_dbm": "5,30",
    "scenario.n_beams": "5",
    "scenario.n_delay_bins": "2",
    "scenario.delay_window": "3e-7,4e-7",
    "scenario.nlos_path_count": "0",
    "scenario.nlos_excess_delay": "5e-7",
    "scenario.null_fraction": "0.3",
    "scenario.interference_factor": "10",
    "scenario.noise_figure_db": "12",
    "scenario.noise_bandwidth_scale": "4",
    "spsa.gamma": "0.45",
    "weights.latency": "1",
    "weights.power": "1",
}

# Keys whose perturbation moves no body, and why; each must not move one.
INERT = {
    "scenario.ue_position": "every repetition replaces it with a point drawn from "
                            "experiment.ue_box",
    "scenario.tx_power_range_dbm": "it only bounds tx_power_dbm, power_grid and "
                                   "convergence_powers; no run reads it otherwise",
    # These two move IPN's later iterates, but on this spec IPN's first step
    # already leaves every threshold outside the echo strengths, so no
    # assessed value moves.
    "ipn.barrier_shrink": "IPN's later rounds move no assessed value here",
    "ipn.newton_iters": "IPN's later rounds move no assessed value here",
}
# Keys that take one value only, and the error any other value raises.
FIXED = {"scenario.n_targets": "n_targets must be 1"}


def _perturbed(key: str) -> str:
    if key in CHOSEN:
        return CHOSEN[key]
    entry = SCHEMA[key]
    base = spec_to_config(spec_from_config(TINY, ExperimentSpec()))[key]

    def one(part: str) -> str:
        if entry.item is bool:
            return str(part != "true").lower()
        if entry.item is int:
            return str(int(part) + 1)
        return repr(float(part) * 1.25 or 0.25)

    return ",".join(map(one, base.split(","))) if entry.pack else one(base)


def _bodies(cfg: dict, out: Path) -> dict[str, list[str]]:
    """The body of every CSV that the spec of ``cfg`` writes."""
    spec = spec_from_config(cfg, ExperimentSpec())
    for name, run in (("compare", run_compare), ("sweep", run_sweep),
                      ("convergence", run_convergence)):
        run(spec, out / name)
    return {str(path.relative_to(out)): path.read_text().splitlines()[1:]
            for path in sorted(out.rglob("*.csv"))}


@pytest.fixture(scope="module")
def base_bodies(tmp_path_factory):
    return _bodies(TINY, tmp_path_factory.mktemp("base"))


def test_tables_name_schema_keys():
    assert set(TINY) <= set(SCHEMA) and set(CHOSEN) <= set(SCHEMA)
    assert set(INERT) <= set(SCHEMA) and set(FIXED) <= set(SCHEMA)
    assert not set(FIXED) & (set(CHOSEN) | set(INERT))


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(SCHEMA))
def test_every_key_moves_an_output(key, base_bodies, tmp_path):
    value = _perturbed(key)
    assert value != spec_to_config(spec_from_config(TINY, ExperimentSpec()))[key]
    if key in FIXED:
        with pytest.raises(ValueError, match=FIXED[key]):
            spec_from_config({**TINY, key: value}, ExperimentSpec())
        return
    bodies = _bodies({**TINY, key: value}, tmp_path)
    if key in INERT:
        assert bodies == base_bodies, f"{key} moved an output: {INERT[key]} no longer holds"
    else:
        assert bodies != base_bodies, f"{key} = {value} moved no CSV body"
