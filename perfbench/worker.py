"""Benchmark worker: runs one workload in one fresh process.

``run.py`` starts this script (passing its spawn time, so set-up covers the
interpreter start and every import) and reads the JSON object it prints
last. After the imports the worker builds the spec and runs one warm-up
episode (set-up ends there), then runs the reps that ``--seconds`` buys at
the nominal rep time. Each rep's result files and exact n_eq total are
checked against ``pins.json``. With ``--trace 1`` every rep runs untraced and
then traced under the same master seed; the two must write the same bytes,
and the traced copy feeds the per-layer counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from racecma.feedback import run_episode
from racecma.seeding import derive_seed

from speed import REFERENCE_S, SpeedProbe, kernel_seconds
from tracer import RunProbe, Tracer
from workloads import SEED_POOL, WORKLOADS, rep_master_seeds, reps_per_run

HERE = Path(__file__).resolve().parent


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--out", type=Path, required=True, help="scratch directory for rep outputs")
    p.add_argument("--minimal", action="store_true", help="tiny spec, no pinned digests")
    p.add_argument("--setup-only", action="store_true", help="stop after set-up")
    p.add_argument("--pin", action="store_true", help="run every pool seed once and print pins")
    return p.parse_args(argv)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_rep(workload, spec, out_dir: Path, probe, calibrate: bool = True) -> dict:
    """Time one rep of the workload body, then digest what it wrote.

    With ``calibrate`` the rep runs under a SpeedProbe: ``wall_s`` is the raw
    wall time less the probe's samples, ``scaled_s`` that time at the
    reference machine speed.
    """
    error = None
    with SpeedProbe() if calibrate else nullcontext() as speed:
        start = time.perf_counter()
        try:
            workload.body(spec, out_dir)
        except Exception as exc:  # a rep that raises is counted failed, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if speed is not None:
            wall -= speed.busy_s
    n_eq, kinds, flagged = probe.take()
    digests = {}
    if error is None:
        for name in workload.outputs:
            digests[name] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "master_seed": spec.master_seed, "wall_s": wall,
        "scaled_s": wall * REFERENCE_S / speed.kernel_s() if speed is not None else None,
        "kernel_samples": len(speed.samples) if speed is not None else 0, "n_eq": str(n_eq),
        "n_eq_float": float(n_eq), "n_eq_by_kind": kinds, "flagged": flagged,
        "error": error, "digests": digests,
    }


def main(argv=None) -> int:
    args = _args(argv)
    workload = WORKLOADS[args.workload]
    pins = {}
    if not (args.minimal or args.pin):
        pins = json.loads((HERE / "pins.json").read_text())[args.workload]
    work = {m: pins[str(m)]["measured_frames"] if pins else 1 for m in SEED_POOL}
    reps = reps_per_run(args.workload, args.seconds)
    if args.trace:
        reps = max(1, reps // 2)  # each traced rep also runs untraced
    masters = rep_master_seeds(args.seed, reps, work)
    spec = workload.spec(masters[0], args.minimal)
    # Fills the lru_cache'd search window, null mask and filter bank, and
    # pages in numpy's kernels, so the timed reps start warm.
    run_episode(spec.scenario, spec.fixed_thresholds, spec.actions,
                derive_seed("perfbench", "warm-up"), 1.0)
    setup_s = time.monotonic() - args.t0
    setup_scaled_s = setup_s * REFERENCE_S / kernel_seconds(15)
    if args.setup_only:
        _emit({"setup_s": setup_s, "setup_scaled_s": setup_scaled_s})
        return 0

    probe = RunProbe()
    if args.pin:
        pins = {}
        for master in SEED_POOL:
            tracer = Tracer()
            tracer.install()
            try:
                rep = run_rep(workload, workload.spec(master), args.out / f"pin-{master}", probe,
                              calibrate=False)
            finally:
                tracer.close()
            if rep["error"] or rep["flagged"]:
                raise SystemExit(f"pin run for master seed {master} failed: {rep}")
            pins[str(master)] = {
                "n_eq": rep["n_eq"], "digests": rep["digests"],
                "measured_frames": tracer.stats["radar.compute_resi"][0],
            }
            print(f"pinned {args.workload} master_seed={master} wall_s={rep['wall_s']:.3f}",
                  file=sys.stderr)
        _emit({"pins": pins, "numpy": np.__version__})
        return 0

    tracer = Tracer() if args.trace else None
    records: list[dict] = []
    for i, master in enumerate(masters):
        spec = workload.spec(master, args.minimal)
        rep = run_rep(workload, spec, args.out / f"rep{i}", probe)
        problems = []
        if rep["error"]:
            problems.append(rep["error"])
        elif pins and (pins[str(master)]["n_eq"], pins[str(master)]["digests"]) != (
                rep["n_eq"], rep["digests"]):
            problems.append("output differs from the pinned reference")
        if tracer is not None:
            tracer.new_rep()
            tracer.install()
            try:
                traced = run_rep(workload, spec, args.out / f"rep{i}-traced", probe,
                                 calibrate=False)
            finally:
                tracer.close()
            rep["traced_wall_s"] = traced["wall_s"]
            if (traced["digests"], traced["n_eq"]) != (rep["digests"], rep["n_eq"]):
                problems.append("traced output differs from the untraced output")
        runs = workload.runs_per_rep(spec)
        rep["runs"] = runs
        rep["failed_runs"] = runs if problems else rep["flagged"]
        rep["problems"] = problems
        records.append(rep)

    walls = [r["wall_s"] for r in records]
    attempted = sum(r["runs"] for r in records)
    failed = sum(r["failed_runs"] for r in records)
    result = {
        "setup_s": setup_s,
        "setup_scaled_s": setup_scaled_s,
        "attempted": attempted,
        "failed": failed,
        "reps": records,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is None:
        # The reps of a run are chosen to mix light and heavy inputs, so the
        # mean (total body time per rep) is the figure that holds work fixed.
        scaled = [r["scaled_s"] for r in records]
        result["metrics"] = {
            "wall_s": (sum(scaled) / len(scaled), "s"),
            "neq_per_s": (sum(r["n_eq_float"] for r in records) / sum(scaled), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced_walls = [r["traced_wall_s"] for r in records]
        kinds = {k: sum(r["n_eq_by_kind"].get(k, 0.0) for r in records)
                 for k in ("stage1", "stage2", "full")}
        metrics = tracer.metrics(len(records), sum(traced_walls), kinds)
        overhead = statistics.median(t - u for t, u in zip(traced_walls, walls))
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / statistics.median(walls), "share")
        metrics["failed_share"] = (failed / attempted, "share")
        result["metrics"] = metrics
        result["layers"] = {k: {"calls": v[0], "total_s": v[1] / 1e9, "self_s": (v[1] - v[2]) / 1e9}
                            for k, v in sorted(tracer.stats.items())}
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
