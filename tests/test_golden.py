"""Golden output digests: the benchmark CSVs of a tiny pinned spec.

The digests were taken from the reference implementation, so a refactor of
the simulator or the optimizers that changes any output byte fails here,
not only a comparison of two runs of the same code.
"""

import hashlib

import pytest

from racecma.bench import ExperimentSpec, run_compare, run_convergence, run_sweep
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
        "convergence_runs.csv": "e6ad452403df4d3f0e4df134478745ce66452d4ce0a1565c51a02d89e8e52521",
        "convergence_summary.csv":
            "7ed68a959caab79a350dcacc85d5cb12d89299ee16af9e3bde9b05e4e8f57197",
    },
}


@pytest.mark.parametrize("body", list(GOLDEN), ids=lambda body: body.__name__)
def test_outputs_match_golden_digests(body, tmp_path):
    body(SPEC, tmp_path)
    expected = {**GOLDEN[body], "spec.cfg": SPEC_CFG}
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in expected}
    assert got == expected
