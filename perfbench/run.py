#!/usr/bin/env python3
"""racecma benchmark: time to result on the compare, sweep and paper_cold loops.

Run from the repository root:

    python3 perfbench/run.py --workload compare --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --pin --workload sweep

A run starts fresh worker processes (``worker.py``, one at a time, each
single-threaded) against the package sources in ``src/``. ``--seconds`` fixes
how many reps one worker runs (see ``workloads.reps_per_run``). ``--trace 0``
reports the end-to-end metrics: the median set-up time over several fresh
processes, and the wall time per rep, n_eq throughput and peak memory of the
worker. Set-up and rep seconds are scaled to a reference machine speed
(``speed.py``); the raw seconds are kept in the saved record. ``--trace 1`` reports the per-layer metrics of a traced copy of each
rep and the tracing overhead. Every rep's output is checked against the
pinned reference (``pins.json``); a run with any mismatch prints
``"correct": false`` and exits 1. Each run also writes its metrics, per-rep
records and provenance to ``perfbench/out/``. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3  # fresh processes whose set-up time is measured per run
DEADLINE_S = 170.0


def _git_commit() -> str:
    """Commit of the checkout, read without starting git; "unknown" outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, minimal: bool = False) -> dict:
    """One benchmark run: set-up samples, then the timed (or traced) worker."""
    deadline = time.monotonic() + DEADLINE_S
    work = OUT / f"work-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--out", str(work)]
    if minimal:
        common.append("--minimal")
    load_start = os.getloadavg()
    try:
        setups = []
        if not trace:
            setups = [_worker([*common, "--setup-only"], deadline)
                      for _ in range(SETUP_SAMPLES - 1)]
        result = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = result.pop("metrics")
    if not trace:
        setups.append({k: result[k] for k in ("setup_s", "setup_scaled_s")})
        median = statistics.median(s["setup_scaled_s"] for s in setups)
        metrics = {"setup_s": (median, "s"), **metrics}
    result["setup_samples"] = setups
    result["metrics"] = metrics
    result["correct"] = result["failed"] == 0
    result["provenance"] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "minimal": minimal, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": result.pop("numpy"), "commit": _git_commit(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
    }
    return result


def report(result: dict) -> None:
    """Print every metric with its unit, save the run, print the JSON result."""
    prov = result["provenance"]
    print("provenance " + json.dumps(prov))
    for rep in result["reps"]:
        for problem in rep["problems"]:
            print(f"rep master_seed={rep['master_seed']}: {problem}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value!r} {unit}")
    OUT.mkdir(exist_ok=True)
    name = f"{prov['workload']}-seed{prov['seed']}-trace{prov['trace']}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))


def self_test() -> int:
    """Minimal-size run of every workload, untraced and traced.

    Checks that each run is correct, reports exactly the metrics that
    BENCHMARK.json declares with their units, and that every traced rep wrote
    the same bytes as its untraced twin (the worker compares them).
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for wl in declared["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(wl["name"], seed=0, seconds=0.1, trace=trace, minimal=True)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: u for k, (_, u) in result["metrics"].items()}
            problems = [p for rep in result["reps"] for p in rep["problems"]]
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json {key}: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            if not result["correct"]:
                problems.append(f"{result['failed']} of {result['attempted']} runs failed")
            ok = ok and not problems
            print(f"{'PASS' if not problems else 'FAIL'} {wl['name']} trace={trace}"
                  + "".join(f"\n  {p}" for p in problems))
    return 0 if ok else 1


def pin(workload: str) -> int:
    """Record the reference outputs of every pool seed into pins.json."""
    result = _worker(["--workload", workload, "--out", str(OUT / f"work-{os.getpid()}"),
                      "--pin"], time.monotonic() + 3600.0)
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    pins["reference"] = {"commit": _git_commit(), "numpy": result["numpy"],
                         "python": platform.python_version()}
    pins[workload] = result["pins"]
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("compare", "sweep", "paper_cold"))
    p.add_argument("--seed", type=int, default=0, help="workload seed")
    p.add_argument("--seconds", type=float, default=30.0, help="measurement time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--self-test", action="store_true", help="minimal-size check of every workload")
    p.add_argument("--pin", action="store_true", help="re-pin the reference outputs of a workload")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "racecma" / "__init__.py").is_file():
        print(f"racecma sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    if args.pin:
        return pin(args.workload)
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
