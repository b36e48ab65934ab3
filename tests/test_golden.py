"""Golden output digests: the benchmark CSVs of a tiny pinned spec.

The digests were taken from the reference implementation, so a refactor of
the simulator or the optimizers that changes any output byte fails here,
not only a comparison of two runs of the same code.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from racecma.bench import ExperimentSpec, _fmt, run_compare, run_convergence, run_sweep
from racecma.scenario import desk_scenario

# Two reps, two generations, all five methods on the 100-frame desk episode.
SPEC = ExperimentSpec(
    scenario=desk_scenario(), repetitions=2, generations=2, budget=36.0, eval_repeats=4,
    power_grid=(10.0, 30.0), map_min_samples=2, map_episodes=1, master_seed=7, jobs=1,
)
SPEC_CFG = "1edbfccdd5b2b9f27932739b4d6cabf25fb82fa37603e4404760937edf174663"
GOLDEN = {
    run_compare: {
        "compare_runs.csv": "cabdec04099b9cfeea1b6ce0cc44fd46635294b18818260a8b2e9005e82a03d7",
        "compare_summary.csv": "9fe957f481b05e63011125384a6d9064a4c9f7da215279d9c1b8681c93f5d849",
    },
    run_sweep: {
        "sweep_runs.csv": "fc115934a0d86a95ba74610224b870845e364ac16509ade6de60e58313606bc4",
        "sweep_summary.csv": "40cab4fcfd8ff9478c9a538c3b61a7a15ca91afa8e1269843e02843989cd9251",
    },
    run_convergence: {
        "convergence_runs.csv": "5f6131965dc39fddd68024c768c9e37011904ae42410c5f39d1190b85a28a904",
        "convergence_summary.csv":
            "39a5f78f45f9165ff0597c035c74b88e96a48492f01dc5b2663dd49ee693dead",
    },
}

# The same spec with the specular (NLOS) echo, whose channel fields the
# LOS-only digests above do not cover.
NLOS_SPEC = replace(SPEC, scenario=desk_scenario(nlos_path_count=1))
NLOS_SPEC_CFG = "2467bd3d09f8fc72d632a2106352b970fabf73df5730217dac4fdca165db1f6f"
NLOS_GOLDEN = {
    run_compare: {
        "compare_runs.csv": "215999ebf3d853a9289c18103acb0f354804f942cd5452a6400e8a1e811e38a7",
        "compare_summary.csv": "7a287aa24ebc56a9f103c43e963891b812d1e843ae3de34ffe81182b238e3f38",
    },
    run_sweep: {
        "sweep_runs.csv": "63ca3ff6ef40ea4a784b5150b627f7feaccd635266109a1f7aa2d74144388cbc",
        "sweep_summary.csv": "6da709ee5ebb127cd1337059f7eebb932d7843dd91ad73302f81509795d6e1f3",
    },
    run_convergence: {
        "convergence_runs.csv": "613e1173391678fc42f1f28471aceb792586372cb02bff2fe65c761264f1e399",
        "convergence_summary.csv":
            "4f4263d019680eae3be1d1301d866186f7a3ebd7cad9ec847e61143d1cc5622e",
    },
}


@pytest.mark.parametrize("body", list(GOLDEN), ids=lambda body: body.__name__)
def test_outputs_match_golden_digests(body, tmp_path):
    _check_digests(body, SPEC, tmp_path)


@pytest.mark.parametrize("body", list(GOLDEN), ids=lambda body: body.__name__)
def test_two_jobs_match_golden_digests(body, tmp_path):
    # ``jobs`` only says how many processes run the repetitions: no output
    # byte, spec.cfg included, may depend on it.
    _check_digests(body, replace(SPEC, jobs=2), tmp_path)


# Specs that differ from SPEC only in the types of their values write SPEC's
# spec.cfg byte for byte, so they must write its CSVs too: a run uses the
# values its spec.cfg spells. Only the sweep reads power_grid; every
# experiment derives its seeds from master_seed.
TYPE_VARIANTS = {
    "int_powers": replace(SPEC, power_grid=(10, 30)),
    "numpy_powers": replace(SPEC, power_grid=tuple(np.array([10.0, 30.0]))),
    "numpy_seed": replace(SPEC, master_seed=np.int64(7)),
}


@pytest.mark.parametrize("body, variant", [
    (run_sweep, "int_powers"), (run_sweep, "numpy_powers"),
    *((body, "numpy_seed") for body in GOLDEN),
], ids=lambda param: getattr(param, "__name__", param))
def test_type_variants_match_golden_digests(body, variant, tmp_path):
    _check_digests(body, TYPE_VARIANTS[variant], tmp_path)


@pytest.mark.parametrize("body", list(NLOS_GOLDEN), ids=lambda body: body.__name__)
def test_nlos_outputs_match_golden_digests(body, tmp_path):
    _check_digests(body, NLOS_SPEC, tmp_path, NLOS_GOLDEN[body], NLOS_SPEC_CFG)


def _check_digests(body, spec, tmp_path, golden=None, spec_cfg=SPEC_CFG):
    golden = GOLDEN[body] if golden is None else golden
    rows = body(spec, tmp_path)
    expected = {**golden, "spec.cfg": spec_cfg}
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected}
    assert got == expected

    # The returned rows are the summary CSV, keyed by its header.
    summary = next(name for name in golden if name.endswith("_summary.csv"))
    header, *cells = (
        line.split(",") for line in (tmp_path / summary).read_text().splitlines()[1:]
    )
    assert [list(row) for row in rows] == [header] * len(cells)
    assert [[_fmt(value) for value in row.values()] for row in rows] == cells
