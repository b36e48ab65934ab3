"""Release-gate suite: every criterion as one test, one PASS line each.

The slow Monte-Carlo comparisons (efficiency ordering, convergence and sweep
directions) run at desk scale with the shipped default experiment
configuration and a pinned master seed; everything else is exact or
property-based. Criteria mirror the checks behind ``racecma validate``.
"""

from fractions import Fraction

import numpy as np
import pytest

from racecma import RacingConfig, cma_optimize, default_params, race_cma_optimize
from racecma import validate as validate_mod
from racecma.bench import ExperimentSpec
from racecma.objective import SyntheticObjective
from racecma.validate import (
    check_cma_invariants,
    check_convergence_direction,
    check_cost_identity,
    check_degenerate_limit,
    check_efficiency_ordering,
    check_feasibility_totality,
    check_map_analytic,
    check_reproducibility,
    check_simulator_physics,
    check_spsa_unbiased,
    check_sweep_direction,
    check_table_cost,
)


# The Monte-Carlo gates run their repetitions in two processes. The golden
# spec at jobs=2 writes the same bytes as at jobs=1 (tests/test_golden.py),
# so this checks the same numbers in less wall time.
GATE_JOBS = 2


def _report(result):
    print(f"\n{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
    assert result.passed, result.detail


class TestAcceptance:
    def test_01_cost_identity_exact(self):
        """One racing generation charges 8.4 (beta=1) / 7.2 (beta=0.8);
        plain CMA-ES charges 12. Tolerance zero."""
        _report(check_cost_identity())

    def test_02_ten_generation_cost_is_72(self):
        """Ten generations at the replication configuration cost exactly 72
        full-evaluation equivalents."""
        _report(check_table_cost())

    def test_03_degenerate_limit_bitwise(self):
        """With promotion=fidelity=truncation=1, single repetitions, no
        mirroring and no warmup, the racing loop's mean trajectory equals
        plain CMA-ES bitwise on a deterministic objective."""
        _report(check_degenerate_limit())

    @pytest.mark.slow
    def test_04_efficiency_ordering(self, tmp_path):
        """Racing exceeds plain CMA-ES in improvement-per-cost by >= 1.3x;
        both exceed SPSA and IPN (20 repetitions, desk scale)."""
        _report(check_efficiency_ordering(ExperimentSpec(jobs=GATE_JOBS), tmp_path))

    @pytest.mark.slow
    def test_05_convergence_direction_gen4(self, tmp_path):
        """Racing's best-so-far detection reliability at generation 4 beats
        plain CMA-ES at the 24.7 dBm configuration (mean over 20 runs)."""
        spec = ExperimentSpec(methods=("CMA-ES", "RACE-CMA"), convergence_powers=(24.7,),
                              jobs=GATE_JOBS)
        _report(check_convergence_direction(spec, tmp_path))

    @pytest.mark.slow
    def test_06_sweep_direction(self, tmp_path):
        """Tuned thresholds dominate the static configuration in detection
        reliability at every power point and cut low-power latency >= 30%."""
        _report(check_sweep_direction(ExperimentSpec(jobs=GATE_JOBS), tmp_path))

    def test_07_map_analytic_crossing(self):
        """Two-Gaussian calibration with priors (0.9, 0.1) places the
        threshold at 1 + ln(9)/2 within 0.02."""
        _report(check_map_analytic())

    def test_08_spsa_unbiased_on_quadratic(self):
        """Averaging the two-point gradient over all 8 sign patterns on the
        quadratic returns the exact gradient to 1e-12."""
        _report(check_spsa_unbiased())

    def test_09_cma_invariant_suite(self):
        """Covariance symmetric PD over 100 noisy updates; rank-only
        dependence bitwise; translation equivariance to float accuracy."""
        _report(check_cma_invariants())

    def test_10_feasibility_totality(self):
        """A million random unconstrained vectors all map to ordered,
        spaced threshold triples."""
        _report(check_feasibility_totality())

    def test_11_simulator_physics(self):
        """Noiseless matched-filter peak at the exact true bin; noise floor
        within 5% with >= 1000 guard elements; echo strength monotone in
        transmit power over a 5-point grid, 200 seeds each."""
        _report(check_simulator_physics())

    def test_12_reproducibility(self, tmp_path):
        """The compare benchmark writes byte-identical CSVs when run twice
        with the same configuration and master seed."""
        _report(check_reproducibility(tmp_path))


class TestCostArithmetic:
    """Exact-arithmetic corollaries of criterion 1 asserted directly."""

    def test_race_ten_generations_beta_one_is_84(self):
        params = default_params(3, 12)
        racing = RacingConfig(mirrored_sampling=True, diagonal_warmup_generations=2)
        obj = SyntheticObjective(lambda x: float(np.sum(x * x)), noise_std=0.05)
        result = race_cma_optimize(obj, params, racing, (np.full(3, 2.0), 1.0),
                                   budget=1e9, seed=2, max_generations=10)
        assert obj.ledger.exact_total == Fraction(84)
        assert result.n_eq == 84.0

    def test_cost_ratio_below_one(self):
        racing = RacingConfig(truncation=0.8)
        assert racing.generation_cost(12) / 12.0 == pytest.approx(0.6)
        assert racing.generation_cost(12) / 12.0 < 1.0


class TestEfficiencyOrderingDetail:
    """The gate's detail says which of its five comparisons decided it."""

    @pytest.mark.parametrize("efficiency, failed", [
        ({"RACE-CMA": 0.0063, "CMA-ES": 0.0044, "SPSA": 0.0031, "IPN": 0.0031}, []),
        ({"RACE-CMA": 0.0050, "CMA-ES": 0.0044, "SPSA": 0.0031, "IPN": 0.0060},
         ["RACE=0.0050 >= 1.3*CMA=0.0057", "CMA=0.0044 > IPN=0.0060",
          "RACE=0.0050 > IPN=0.0060"]),
    ])
    def test_detail_names_all_five_comparisons(self, monkeypatch, tmp_path, efficiency, failed):
        monkeypatch.setattr(validate_mod, "run_compare", lambda spec, out: [
            {"method": method, "efficiency": value} for method, value in efficiency.items()])
        result = check_efficiency_ordering(ExperimentSpec(), tmp_path)
        parts = result.detail.removeprefix("efficiency: ").split("; ")
        assert [part.split(" (")[0] for part in parts] == [
            f"RACE={efficiency['RACE-CMA']:.4f} >= 1.3*CMA={1.3 * efficiency['CMA-ES']:.4f}",
            f"CMA={efficiency['CMA-ES']:.4f} > SPSA={efficiency['SPSA']:.4f}",
            f"CMA={efficiency['CMA-ES']:.4f} > IPN={efficiency['IPN']:.4f}",
            f"RACE={efficiency['RACE-CMA']:.4f} > SPSA={efficiency['SPSA']:.4f}",
            f"RACE={efficiency['RACE-CMA']:.4f} > IPN={efficiency['IPN']:.4f}",
        ]
        assert [part.split(" (")[0] for part in parts if part.endswith(", FAILED)")] == failed
        assert result.passed == (not failed)
        assert "(margin +0.0013" in parts[1]  # CMA minus SPSA


class TestConvergenceDirectionDetail:
    """The gate's detail gives both sides at generation four and the margin."""

    @pytest.mark.parametrize("race, cma, passed", [
        (0.6250, 0.6000, True), (0.5900, 0.6000, False), (0.6000, 0.6000, False)])
    def test_detail_gives_both_sides_and_the_margin(self, monkeypatch, tmp_path, race, cma,
                                                    passed):
        rows = [{"method": method, "generation": gen, "j_det": value + gen - 4}
                for gen in (3, 4, 5) for method, value in (("CMA-ES", cma), ("RACE-CMA", race))]
        monkeypatch.setattr(validate_mod, "run_convergence", lambda spec, out: rows)
        result = check_convergence_direction(ExperimentSpec(), tmp_path)
        assert result.passed == passed
        assert result.detail == (f"generation-4 J_det: RACE={race:.4f} > CMA={cma:.4f} "
                                 f"(margin {race - cma:+.4f}{'' if passed else ', FAILED'})")


class TestSweepDirectionDetail:
    """The gate's detail lists each power's J_det comparison and the
    low-power latency cut, and marks the sub-checks that failed."""

    @staticmethod
    def _rows(tuned_det, fixed_lat, tuned_lat):
        """Sweep summary rows on the default power grid: fixed J_det 0.7 at
        every power, the given tuned J_det, and the given latencies at every
        power."""
        return [{"power_dbm": p, "variant": variant, "j_det": det, "j_lat_norm": lat}
                for p, tuned in zip(ExperimentSpec().power_grid, tuned_det)
                for variant, det, lat in (("fixed", 0.7, fixed_lat), ("tuned", tuned, tuned_lat))]

    @pytest.mark.parametrize("tuned_det, fixed_lat, tuned_lat, failed, note", [
        ((0.8, 0.7, 0.9, 0.75, 0.8), 0.5, 0.3, [], False),
        ((0.8, 0.7, 0.6, 0.75, 0.8), 0.5, 0.4,
         ["J_det at 20 dBm: tuned=0.6000 >= fixed=0.7000",
          "latency at 10 dBm: cut=20.0% >= bound=30.0%"], False),
        ((0.8, 0.7, 0.9, 0.75, 0.8), 0.0, 0.0,
         ["latency at 10 dBm: cut=0.0% >= bound=30.0%"], True),
    ])
    def test_detail_lists_every_sub_check(self, monkeypatch, tmp_path, tuned_det, fixed_lat,
                                          tuned_lat, failed, note):
        rows = self._rows(tuned_det, fixed_lat, tuned_lat)
        monkeypatch.setattr(validate_mod, "run_sweep", lambda spec, out: rows)
        result = check_sweep_direction(ExperimentSpec(), tmp_path)
        parts = result.detail.split("; ")
        cut = (fixed_lat - tuned_lat) / fixed_lat if fixed_lat > 0 else 0.0
        assert [part.split(" (")[0] for part in parts[:6]] == [
            *(f"J_det at {p:g} dBm: tuned={det:.4f} >= fixed=0.7000"
              for p, det in zip(ExperimentSpec().power_grid, tuned_det)),
            f"latency at 10 dBm: cut={cut:.1%} >= bound=30.0%",
        ]
        assert [part.split(" (")[0] for part in parts if part.endswith(", FAILED)")] == failed
        assert result.passed == (not failed)
        assert parts[6:] == (["the fixed latency is 0, so the cut reads 0%"] if note else [])
        assert parts[0].endswith("(margin +0.1000)")
        assert f"(margin {cut - 0.30:+.1%}" in parts[5]
