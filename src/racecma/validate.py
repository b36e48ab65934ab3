"""Self-validation suite: every release gate as an executable check.

``validate()`` runs the fast exact/property checks (cost identities,
degenerate-limit equivalence, feasibility totality, analytic baselines,
simulator physics, reproducibility); ``validate(full_spec)`` adds the
Monte-Carlo comparisons (efficiency ordering, convergence and sweep
directions) run on that spec.
"""

from __future__ import annotations

import math
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import cma as cma_mod
from .baselines import posterior_crossing, spsa_gradient
from .bench import (
    ExperimentSpec,
    run_compare,
    run_convergence,
    run_sweep,
    write_csv,
)
from .cma import default_params, init_state, sample_population, update
from .objective import SyntheticObjective
from .race import RacingConfig, map_unconstrained, race_cma_optimize
from .radar import ChannelRealization, compute_resi, matched_filter, synthesize_rx_grid
from .scenario import ScenarioConfig, desk_scenario, dbm_to_watt
from .seeding import derive_seed, rng_from


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _sphere(x: np.ndarray) -> float:
    return float(np.sum(x * x))


# ---------------------------------------------------------------------------
# Exact cost accounting


def check_cost_identity() -> CheckResult:
    """One racing generation charges lambda*tau + k*r*beta, exactly."""
    params = default_params(3, 12)
    base = dict(promotion_fraction=0.5, fidelity_ratio=0.2, repetitions=1,
                mirrored_sampling=False, diagonal_warmup_generations=0)
    observed = []
    expected = [Fraction(42, 5), Fraction(36, 5), Fraction(12)]
    for truncation in (1.0, 0.8):
        obj = SyntheticObjective(_sphere)
        race_cma_optimize(
            obj, params, RacingConfig(truncation=truncation, **base),
            (np.zeros(3), 1.0), budget=100.0, seed=3, max_generations=1,
        )
        observed.append(obj.ledger.exact_total)
    obj = SyntheticObjective(_sphere)
    cma_mod.cma_optimize(obj, params, (np.zeros(3), 1.0), budget=12.0, seed=3)
    observed.append(obj.ledger.exact_total)

    passed = observed == expected and float(observed[0]) == 8.4 and float(observed[1]) == 7.2
    return CheckResult(
        "cost-identity", passed,
        f"observed={[float(o) for o in observed]} expected=[8.4, 7.2, 12.0]",
    )


def check_table_cost() -> CheckResult:
    """Ten racing generations at the replication configuration cost 72."""
    params = default_params(3, 12)
    racing = RacingConfig(
        promotion_fraction=0.5, fidelity_ratio=0.2, truncation=0.8,
        repetitions=1, mirrored_sampling=True, diagonal_warmup_generations=2,
    )
    obj = SyntheticObjective(_sphere, noise_std=0.05)
    result = race_cma_optimize(
        obj, params, racing, (np.full(3, 2.0), 1.0),
        budget=1000.0, seed=11, max_generations=10,
    )
    passed = obj.ledger.exact_total == Fraction(72) and result.n_eq == 72.0
    return CheckResult("table-cost", passed, f"n_eq={obj.ledger.n_eq} expected=72.0")


def check_degenerate_limit() -> CheckResult:
    """With no racing advantage configured, the racing loop is plain CMA-ES."""
    params = default_params(3, 8)
    racing = RacingConfig(
        promotion_fraction=1.0, fidelity_ratio=1.0, truncation=1.0,
        repetitions=1, mirrored_sampling=False, diagonal_warmup_generations=0,
    )
    init = (np.array([2.0, -1.0, 0.5]), 0.7)
    race = race_cma_optimize(
        SyntheticObjective(_sphere), params, racing, init,
        budget=1e9, seed=17, max_generations=6,
    )
    plain = cma_mod.cma_optimize(
        SyntheticObjective(_sphere), params, init,
        budget=8 * 6, seed=17, max_generations=6,
    )
    means_race = [rec.mean for rec in race.history]
    means_plain = [rec.mean for rec in plain.history]
    passed = len(means_race) == 6 and means_race == means_plain
    return CheckResult(
        "degenerate-limit", passed,
        "mean trajectories bitwise equal" if passed else
        f"trajectories diverge: {means_race[-1]} vs {means_plain[-1]}",
    )


# ---------------------------------------------------------------------------
# Analytic baselines


def check_map_analytic() -> CheckResult:
    """Two-Gaussian posterior crossing matches the closed form within 0.02.

    The tolerance is about one standard error of the fitted crossing at this
    calibration size, so the check runs on a fixed representative draw.
    """
    rng = rng_from(7, "map-check")
    low = rng.normal(0.0, 1.0, 9000)
    high = rng.normal(2.0, 1.0, 1000)
    crossing = posterior_crossing(low, high, priors=(0.9, 0.1))
    expected = 1.0 + math.log(9.0) / 2.0
    passed = abs(crossing - expected) < 0.02
    return CheckResult(
        "map-analytic", passed, f"crossing={crossing:.4f} expected={expected:.4f}"
    )


def check_spsa_unbiased() -> CheckResult:
    """Perturbation-averaged gradient equals the true quadratic gradient."""
    obj = SyntheticObjective(_sphere)
    t = np.array([1.0, 1.0, 1.0])
    total = np.zeros(3)
    patterns = [
        np.array([sx, sy, sz])
        for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)
    ]
    for delta in patterns:
        total += spsa_gradient(obj, t, 0.1, delta, seed=0)
    average = total / len(patterns)
    passed = bool(np.all(np.abs(average - 2.0) < 1e-12))
    return CheckResult("spsa-unbiased", passed, f"average={average.tolist()}")


# ---------------------------------------------------------------------------
# CMA-ES invariants


def check_cma_invariants() -> CheckResult:
    """Covariance stays symmetric PD; updates are rank-only; translation
    equivariance holds to floating-point accuracy."""
    params = default_params(3, 10)
    state = init_state(np.zeros(3), 1.0)
    rng = rng_from(5, "pd-check")
    for i in range(100):
        z, points = sample_population(state, params, derive_seed(5, "pd", i))
        costs = rng.standard_normal(params.lam)
        order = np.argsort(costs, kind="stable")
        state = update(state, params, points[order[: params.mu]])
        sym_err = float(np.max(np.abs(state.cov - state.cov.T)))
        min_eig = float(np.min(np.linalg.eigvalsh(state.cov)))
        if sym_err > 1e-12 or not min_eig > 1e-14 * float(np.max(np.linalg.eigvalsh(state.cov))):
            return CheckResult(
                "cma-invariants", False,
                f"update {i}: symmetry error {sym_err:.2e}, min eigenvalue {min_eig:.2e}",
            )

    init = (np.array([2.0, 2.0, 2.0]), 1.0)
    runs = []
    for fn in (_sphere, lambda x: math.exp(_sphere(x)) + 5.0):
        runs.append(
            cma_mod.cma_optimize(
                SyntheticObjective(fn), params, init, budget=1e9, seed=23, max_generations=8
            )
        )
    rank_ok = all(
        a.mean == b.mean and a.sigma == b.sigma
        for a, b in zip(runs[0].history, runs[1].history)
    )
    if not rank_ok:
        return CheckResult("cma-invariants", False, "rank-transform invariance violated")

    shift = np.array([1.0, -2.0, 0.5])
    base = cma_mod.cma_optimize(
        SyntheticObjective(_sphere), params, init, budget=1e9, seed=29, max_generations=8
    )
    shifted = cma_mod.cma_optimize(
        SyntheticObjective(lambda x: _sphere(x - shift)), params,
        (init[0] + shift, init[1]), budget=1e9, seed=29, max_generations=8,
    )
    trans_ok = all(
        np.allclose(np.array(b.mean) - shift, np.array(a.mean), rtol=1e-12, atol=1e-12)
        for a, b in zip(base.history, shifted.history)
    )
    if not trans_ok:
        return CheckResult("cma-invariants", False, "translation equivariance violated")
    return CheckResult("cma-invariants", True, "PD, rank-only and translation checks passed")


def check_feasibility_totality() -> CheckResult:
    """Every unconstrained input maps to spaced, ordered thresholds."""
    delta = 0.1
    rng = rng_from(7, "feasibility")
    u = rng.uniform(-8.0, 8.0, size=(1_000_000, 3))
    t = map_unconstrained(u, delta)
    gap12 = t[:, 1] - t[:, 0]
    gap23 = t[:, 2] - t[:, 1]
    # 1e-12 absolute slack: the subtraction T2 - T1 can round one ulp under
    # the spacing even though the additive construction never goes below it.
    passed = bool(np.all(gap12 >= delta - 1e-12) and np.all(gap23 >= delta - 1e-12))
    return CheckResult(
        "feasibility-totality", passed,
        f"min gaps: {float(gap12.min()):.12f}, {float(gap23.min()):.12f} (delta={delta})",
    )


# ---------------------------------------------------------------------------
# Simulator physics


def _aligned_channel(scenario: ScenarioConfig, delay: float, doppler: float) -> tuple[ChannelRealization, int]:
    """On-grid channel aligned with the middle sweep beam."""
    beam_index = scenario.n_beams // 2
    angle = float(scenario.beam_centers()[beam_index])
    channel = ChannelRealization(
        forward_delay=delay / 2.0, return_delay=delay / 2.0, doppler=doppler,
        departure_angle=angle, arrival_angle=1.1, bs_gain=1e-9, ue_gain=1e-8,
    )
    return channel, beam_index


def check_simulator_physics() -> CheckResult:
    """Matched-filter peak location, noise-floor accuracy, power monotonicity."""
    scenario = desk_scenario()
    delays, dopplers = scenario.search_window()
    channel, beam = _aligned_channel(scenario, float(delays[3]), float(dopplers[7]))
    quiet = replace(scenario, noise_figure_db=-150.0)
    grid = synthesize_rx_grid(quiet, channel, beam, power_w=0.1, seed=99)
    surface = np.abs(matched_filter(grid, (delays, dopplers)))
    peak = np.unravel_index(int(np.argmax(surface)), surface.shape)
    if peak != (3, 7):
        return CheckResult("simulator-physics", False, f"peak at {peak}, expected (3, 7)")

    wide = ScenarioConfig(n_subcarriers=110, n_symbols=100, sensing_horizon=1.0)
    if wide.null_subcarriers * wide.n_symbols < 1000:
        return CheckResult("simulator-physics", False, "null set smaller than 1000")
    sigma = math.sqrt(wide.noise_variance)
    channel_w, beam_w = _aligned_channel(wide, float(wide.search_window()[0][2]), 0.0)
    estimates = []
    for s in range(100):
        g = synthesize_rx_grid(wide, channel_w, beam_w, power_w=0.0, seed=derive_seed(41, s))
        sample = compute_resi(matched_filter(g, wide.search_window()), g)
        estimates.append(sample.noise_floor)
    rel_err = abs(float(np.mean(estimates)) / sigma - 1.0)
    if rel_err >= 0.05:
        return CheckResult("simulator-physics", False, f"noise floor off by {rel_err:.3%}")

    channel_m, beam_m = _aligned_channel(scenario, float(delays[4]), float(dopplers[5]))
    means = []
    for dbm in (10.0, 15.0, 20.0, 25.0, 30.0):
        watts = dbm_to_watt(dbm)
        values = []
        for s in range(200):
            g = synthesize_rx_grid(scenario, channel_m, beam_m, watts, seed=derive_seed(43, dbm, s))
            values.append(compute_resi(matched_filter(g, (delays, dopplers)), g).value)
        means.append(float(np.mean(values)))
    if not all(a <= b for a, b in zip(means, means[1:])):
        return CheckResult("simulator-physics", False, f"echo strength not monotone: {means}")
    return CheckResult(
        "simulator-physics", True,
        f"peak exact, noise floor within {rel_err:.3%}, power curve {['%.2f' % m for m in means]}",
    )


# ---------------------------------------------------------------------------
# End-to-end


@contextmanager
def _scratch_dir(scratch: Path | None) -> Iterator[Path]:
    """``scratch``, or a temporary directory removed when the block exits."""
    if scratch:
        yield Path(scratch)
    else:
        with tempfile.TemporaryDirectory(prefix="racecma-validate-") as tmp:
            yield Path(tmp)


def check_reproducibility(scratch: Path | None = None) -> CheckResult:
    """The compare benchmark is byte-identical across runs."""
    spec = ExperimentSpec(
        repetitions=2, methods=("CMA-ES", "RACE-CMA"), budget=24.0,
        generations=2, eval_repeats=2, master_seed=1,
    )
    files = ("compare_runs.csv", "compare_summary.csv", "spec.cfg")
    with _scratch_dir(scratch) as base:
        run_compare(spec, base / "a")
        run_compare(spec, base / "b")
        for name in files:
            if (base / "a" / name).read_bytes() != (base / "b" / name).read_bytes():
                return CheckResult("reproducibility", False, f"{name} differs between runs")
    return CheckResult("reproducibility", True, "compare outputs byte-identical")


def _versus(left: str, a: float, right: str, b: float, strict: bool = True,
            fmt: str = ".4f") -> tuple[bool, str]:
    """Whether ``a > b`` (``a >= b`` unless ``strict``), and the comparison
    as ``left=a > right=b (margin a-b)``, marked ``FAILED`` when it fails."""
    ok = a > b if strict else a >= b
    return ok, (f"{left}={a:{fmt}} {'>' if strict else '>='} {right}={b:{fmt}} "
                f"(margin {a - b:+{fmt}}{'' if ok else ', FAILED'})")


# The methods whose compare rows check_efficiency_ordering reads.
ORDERING_METHODS = ("IPN", "SPSA", "CMA-ES", "RACE-CMA")


def check_efficiency_ordering(spec: ExperimentSpec, scratch: Path | None = None) -> CheckResult:
    """Racing beats plain CMA-ES on cost-normalized improvement; both beat
    the local baselines. The detail lists all five comparisons, each with
    both sides and the margin (left minus right), and marks any that failed."""
    with _scratch_dir(scratch) as base:
        rows = run_compare(spec, base / "compare")
    eff = {row["method"]: row["efficiency"] for row in rows}
    race, cma, spsa, ipn = (eff[m] for m in ("RACE-CMA", "CMA-ES", "SPSA", "IPN"))
    # (left side, its efficiency, right side, its efficiency, whether a tie fails)
    comparisons = [
        ("RACE", race, "1.3*CMA", 1.3 * cma, False),
        ("CMA", cma, "SPSA", spsa, True),
        ("CMA", cma, "IPN", ipn, True),
        ("RACE", race, "SPSA", spsa, True),
        ("RACE", race, "IPN", ipn, True),
    ]
    verdicts = [_versus(*comparison) for comparison in comparisons]
    return CheckResult("efficiency-ordering", all(ok for ok, _ in verdicts),
                       "efficiency: " + "; ".join(part for _, part in verdicts))


# The generation whose convergence rows check_convergence_direction reads.
CONVERGENCE_GENERATION = 4


def check_convergence_direction(spec: ExperimentSpec, scratch: Path | None = None) -> CheckResult:
    """Racing is ahead of plain CMA-ES at generation four, high power.

    Runs ``spec`` with those two methods at 24.7 dBm only.
    """
    spec = replace(spec, methods=("CMA-ES", "RACE-CMA"), convergence_powers=(24.7,))
    with _scratch_dir(scratch) as base:
        rows = run_convergence(spec, base / "converge")
    gen4 = {row["method"]: row["j_det"] for row in rows
            if row["generation"] == CONVERGENCE_GENERATION}
    passed, part = _versus("RACE", gen4["RACE-CMA"], "CMA", gen4["CMA-ES"])
    return CheckResult("convergence-direction", passed,
                       f"generation-{CONVERGENCE_GENERATION} J_det: {part}")


def check_sweep_direction(spec: ExperimentSpec, scratch: Path | None = None) -> CheckResult:
    """Tuned thresholds dominate fixed ones across the power grid and cut
    latency at the low-power point. The detail lists each power's J_det
    comparison and the latency cut, each with both sides and the margin,
    and marks any that failed; a fixed latency of 0 reads as a 0 % cut,
    and the detail says so."""
    with _scratch_dir(scratch) as base:
        rows = run_sweep(spec, base / "sweep")
    by_key = {(row["power_dbm"], row["variant"]): row for row in rows}
    verdicts = [
        _versus(f"J_det at {p:g} dBm: tuned", by_key[(p, "tuned")]["j_det"],
                "fixed", by_key[(p, "fixed")]["j_det"], strict=False)
        for p in spec.power_grid
    ]
    low = min(spec.power_grid)
    fixed_lat = by_key[(low, "fixed")]["j_lat_norm"]
    tuned_lat = by_key[(low, "tuned")]["j_lat_norm"]
    reduction = (fixed_lat - tuned_lat) / fixed_lat if fixed_lat > 0 else 0.0
    verdicts.append(_versus(f"latency at {low:g} dBm: cut", reduction, "bound", 0.30,
                            strict=False, fmt=".1%"))
    parts = [part for _, part in verdicts]
    if not fixed_lat > 0:
        parts.append("the fixed latency is 0, so the cut reads 0%")
    return CheckResult("sweep-direction", all(ok for ok, _ in verdicts), "; ".join(parts))


# ---------------------------------------------------------------------------
# Driver


def require_full_spec(spec: ExperimentSpec) -> None:
    """Raise ``ValueError`` unless the Monte-Carlo checks can read ``spec``'s
    results: its methods include ``ORDERING_METHODS`` and it runs at least
    ``CONVERGENCE_GENERATION`` generations. ``--full`` is the CLI's name for
    those checks."""
    missing = [m for m in ORDERING_METHODS if m not in spec.methods]
    if missing:
        raise ValueError(f"--full compares {', '.join(ORDERING_METHODS)}; "
                         f"the methods lack {', '.join(missing)}")
    if spec.generations < CONVERGENCE_GENERATION:
        raise ValueError(f"--full reads generation {CONVERGENCE_GENERATION}; "
                         f"experiment.generations is {spec.generations}")


def validate(
    full_spec: ExperimentSpec | None = None,
    scratch: Path | None = None,
) -> tuple[bool, list[CheckResult]]:
    """Run the acceptance checks; returns overall pass and per-check rows.
    The Monte-Carlo comparisons run exactly when ``full_spec`` is given, and
    a ``full_spec`` they cannot read raises (:func:`require_full_spec`)
    before any check runs."""
    if full_spec is not None:
        require_full_spec(full_spec)
    results = [
        check_cost_identity(),
        check_table_cost(),
        check_degenerate_limit(),
        check_map_analytic(),
        check_spsa_unbiased(),
        check_cma_invariants(),
        check_feasibility_totality(),
        check_simulator_physics(),
        check_reproducibility(scratch),
    ]
    if full_spec is not None:
        results.append(check_efficiency_ordering(full_spec, scratch))
        results.append(check_convergence_direction(full_spec, scratch))
        results.append(check_sweep_direction(full_spec, scratch))
    return all(r.passed for r in results), results


def write_validation_report(results: Sequence[CheckResult], path: Path) -> None:
    write_csv(
        path, "validation report",
        ("check", "passed", "detail"),
        [(r.name, int(r.passed), r.detail.replace(",", ";")) for r in results],
    )
