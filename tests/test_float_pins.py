"""Float pins: the values of fixed cells and of one episode's first frames,
against ``tests/data/cells.json``.

The golden digests (``test_golden.py``) hash whole CSVs, whose printed
floats round away a drift below their last digit, and the other radar
tests compare two paths of the same code. These pins compare the floats
themselves with the values the code gave when the fixture was written,
within a relative 1e-12 (the chain's matched filter rounds differently
under another BLAS kernel, at about 1e-15), and the integer series
exactly. For each scenario the fixture holds 50 cells, each a target,
beam, power and frame seed, with the cell's channel, the noise floor and
echo strength of the reference chain (``synthesize_rx_grid`` ->
``matched_filter`` -> ``compute_resi``) and those of the episode loop's
split (``build_frames`` -> ``measure_cell``), and the resi, states and
power of the first 100 frames of one episode. Every float is stored as
``float.hex``.

To rewrite the fixture after a change that moves these values on purpose:

    PYTHONPATH=src python tests/test_float_pins.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from racecma import ScenarioConfig, desk_scenario, run_episode
from racecma.radar import (build_frames, cell_constants, compute_resi, matched_filter,
                           measure_cell, realize_channel, synthesize_rx_grid)
from racecma.scenario import TargetState, dbm_to_watt
from racecma.seeding import derive_seed, seed_words

FIXTURE = Path(__file__).parent / "data" / "cells.json"
SCENARIOS = {
    "desk_los": desk_scenario(),
    "desk_nlos": desk_scenario(nlos_path_count=1),
    "paper": ScenarioConfig(),
}
N_CELLS = 50
N_FRAMES = 100
EPISODE = {"thresholds": (0.2, 0.5, 1.0), "seed": 5}
REL = 1e-12

CHANNEL_FIELDS = ("forward_delay", "return_delay", "doppler", "departure_angle",
                  "arrival_angle", "bs_gain", "ue_gain")
NLOS_FIELDS = ("delay", "doppler", "arrival_angle", "gain")


def _cell_inputs(name: str, scenario: ScenarioConfig) -> list[dict]:
    """The fixture's cells of one scenario: targets anywhere in the region,
    every other cell on the beam that holds the target's bearing, if one
    does, and powers across the scenario's budget, a tenth of them zero."""
    rng = np.random.default_rng([38, len(name), sum(map(ord, name))])
    r, bs = scenario.region, scenario.bs_position
    cells = []
    for i in range(N_CELLS):
        position = (float(rng.uniform(r.x_min, r.x_max)), float(rng.uniform(r.y_min, r.y_max)))
        heading = float(rng.uniform(0.0, 2.0 * math.pi))
        velocity = (scenario.target_speed * math.cos(heading),
                    scenario.target_speed * math.sin(heading))
        bearing = math.atan2(position[1] - bs[1], position[0] - bs[0])
        beam = int(rng.integers(scenario.n_beams))
        if i % 2 == 0:
            beam = next((b for b in range(scenario.n_beams)
                         if scenario.beam_contains(b, bearing)), beam)
        power = 0.0 if i % 10 == 9 else dbm_to_watt(float(rng.uniform(
            *scenario.tx_power_range_dbm)))
        cells.append({"position": position, "velocity": velocity, "beam": beam,
                      "power_w": power, "seed": derive_seed(38, name, i)})
    return cells


def _cell_values(scenario: ScenarioConfig, cell: dict) -> dict:
    target = TargetState(position=tuple(cell["position"]), velocity=tuple(cell["velocity"]))
    channel = realize_channel(scenario, target)
    grid = synthesize_rx_grid(scenario, channel, cell["beam"], cell["power_w"], cell["seed"])
    chain = compute_resi(matched_filter(grid, scenario.search_window()), grid)
    const = cell_constants(scenario)
    # The chain's grid of seed s draws from derive_seed(s, "rx-noise").
    words = seed_words([derive_seed(cell["seed"], "rx-noise")])
    frames = build_frames(const, [channel], words)
    values = {f: getattr(channel, f) for f in CHANNEL_FIELDS}
    if channel.nlos is not None:
        values.update({f"nlos_{f}": getattr(channel.nlos, f) for f in NLOS_FIELDS})
    values.update(chain_floor=chain.noise_floor, chain_resi=chain.value,
                  split_floor=frames.floor[0],
                  split_resi=measure_cell(const, frames, 0, cell["beam"], cell["power_w"]))
    return values


def _episode(scenario: ScenarioConfig) -> dict:
    fidelity = min(1.0, N_FRAMES / scenario.frame_count)
    trace = run_episode(scenario, EPISODE["thresholds"], seed=EPISODE["seed"],
                        fidelity=fidelity)
    return {"resi": trace.resi[:N_FRAMES].tolist(), "states": trace.states[:N_FRAMES].tolist(),
            "power": trace.power[:N_FRAMES].tolist()}


def _hex(value):
    """``value`` with every float as ``float.hex``, through lists and dicts."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    return value


def _unhex(value):
    if isinstance(value, str) and value.startswith(("0x", "-0x")):
        return float.fromhex(value)
    if isinstance(value, list):
        return [_unhex(v) for v in value]
    if isinstance(value, dict):
        return {k: _unhex(v) for k, v in value.items()}
    return value


def write_fixture() -> None:
    fixture = {}
    for name, scenario in SCENARIOS.items():
        cells = _cell_inputs(name, scenario)
        fixture[name] = {
            "cells": [{"inputs": c, "values": _cell_values(scenario, c)} for c in cells],
            "episode": _episode(scenario),
        }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_hex(fixture), indent=1) + "\n")


@pytest.fixture(scope="module")
def pins() -> dict:
    return _unhex(json.loads(FIXTURE.read_text()))


def _drifted(got: dict, want: dict) -> list[str]:
    return [f"{key}: {got[key]!r} against {want[key]!r}" for key in want
            if not math.isclose(got[key], want[key], rel_tol=REL, abs_tol=0.0)]


@pytest.mark.parametrize("name", SCENARIOS)
def test_fixture_covers_the_scenario(pins, name):
    """Every cell has its values, the specular path's only on NLOS; the
    cells' echo strengths reach both sides of 1, and the episode visits all
    four states and skips frames."""
    cells, episode = pins[name]["cells"], pins[name]["episode"]
    assert len(cells) == N_CELLS
    nlos = SCENARIOS[name].nlos_path_count == 1
    assert all(("nlos_gain" in c["values"]) == nlos for c in cells)
    resi = [c["values"]["chain_resi"] for c in cells]
    assert min(resi) < 1.0 < max(resi)
    assert set(episode["states"]) == {0, 1, 2, 3}
    assert 0.0 in episode["power"][1:]


@pytest.mark.parametrize("name", SCENARIOS)
def test_cells_match_the_pins(pins, name):
    """Every cell's channel, and the chain's and the split's noise floor and
    echo strength."""
    scenario = SCENARIOS[name]
    drifted = []
    for i, cell in enumerate(pins[name]["cells"]):
        got = _cell_values(scenario, cell["inputs"])
        assert set(got) == set(cell["values"])
        drifted += [f"cell {i} {d}" for d in _drifted(got, cell["values"])]
    assert not drifted, drifted


@pytest.mark.parametrize("name", SCENARIOS)
def test_episode_prefix_matches_the_pins(pins, name):
    """The first frames of one episode: the states exactly, the belief and
    the power within the tolerance."""
    got, want = _episode(SCENARIOS[name]), pins[name]["episode"]
    assert got["states"] == want["states"]
    for series in ("resi", "power"):
        drifted = [t for t, (g, w) in enumerate(zip(got[series], want[series], strict=True))
                   if not math.isclose(g, w, rel_tol=REL, abs_tol=0.0)]
        assert not drifted, (series, drifted)


if __name__ == "__main__":
    write_fixture()
    sys.exit(0)
