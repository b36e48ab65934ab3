"""Benchmark command line: compare, sweep, converge, validate."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bench import ExperimentSpec, run_compare, run_convergence, run_sweep
from .config import load_config, spec_from_config
from .validate import (
    CONVERGENCE_GENERATION, ORDERING_METHODS, require_full_spec, validate,
    write_validation_report,
)


# The flags that override a spec field: flag -> (field, argparse type, help).
_SPEC_FLAGS = {
    "seed": ("master_seed", int, "master seed override"),
    "reps": ("repetitions", int, "repetition count override"),
    "budget": ("budget", float, "per-run evaluation budget (N_eq)"),
    "methods": ("methods", str, "comma-separated method subset"),
    "jobs": ("jobs", int, "parallel repetition workers"),
}


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Benchmark defaults, overlaid with config-file keys, then CLI flags."""
    cfg = load_config(args.config) if args.config else {}
    spec = spec_from_config(cfg, ExperimentSpec())

    overrides = {name: getattr(args, flag) for flag, (name, _, _) in _SPEC_FLAGS.items()
                 if getattr(args, flag) is not None}
    if "methods" in overrides:
        overrides["methods"] = tuple(m.strip() for m in overrides["methods"].split(","))
    return replace(spec, **overrides) if overrides else spec


def _spec_or_exit(parser: argparse.ArgumentParser, args: argparse.Namespace) -> ExperimentSpec:
    """``build_spec``, with a bad flag, config key or config file as a usage error."""
    try:
        return build_spec(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


def _make_out(parser: argparse.ArgumentParser, out: Path) -> None:
    """Create the output directory before any work, with a bad path as a usage error."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(str(exc))


def _add_common(parser: argparse.ArgumentParser, out_required: bool = True) -> None:
    parser.add_argument("--config", type=Path, help="key-value config file")
    for flag, (_, kind, helptext) in _SPEC_FLAGS.items():
        parser.add_argument(f"--{flag}", type=kind, help=helptext)
    parser.add_argument("--out", type=Path, required=out_required, help="output directory")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="racecma",
        description="Benchmarks for racing threshold optimization on the bistatic sensing loop",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, helptext in (
        ("compare", "method comparison: improvement, cost, efficiency"),
        ("sweep", "fixed-vs-tuned thresholds across transmit powers"),
        ("converge", "best-so-far detection reliability per generation"),
    ):
        commands[name] = sub.add_parser(name, help=helptext)
        _add_common(commands[name])

    val = sub.add_parser(
        "validate", help="run the acceptance checks",
        description="Run the acceptance checks. The spec flags apply only with --full, "
                    "whose methods must include " + ", ".join(ORDERING_METHODS) + " and "
                    f"whose experiment.generations must be >= {CONVERGENCE_GENERATION}.",
    )
    _add_common(val, out_required=False)
    val.add_argument("--full", action="store_true",
                     help="include the Monte-Carlo comparison checks")

    args = parser.parse_args(argv)

    if args.command == "validate":
        full_spec = _spec_or_exit(val, args) if args.full else None
        # The spec flags shape only the spec that the --full checks run.
        given = [f"--{flag}" for flag in ("config", *_SPEC_FLAGS)
                 if getattr(args, flag) is not None]
        if given and full_spec is None:
            val.error(f"spec flags only apply with --full: {', '.join(given)}")
        if full_spec is not None:
            try:
                require_full_spec(full_spec)
            except ValueError as exc:
                val.error(str(exc))
        if args.out:
            _make_out(val, args.out)
        passed, results = validate(full_spec, args.out / "scratch" if args.out else None)
        for result in results:
            print(f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
        if args.out:
            write_validation_report(results, args.out / "validation.csv")
        return 0 if passed else 1

    spec = _spec_or_exit(commands[args.command], args)
    _make_out(commands[args.command], args.out)
    if args.command == "compare":
        for row in run_compare(spec, args.out):
            print(
                f"{row['method']:10s} dJ={row['delta_j']:+.4f} N_eq={row['n_eq']:7.2f} "
                f"eff={row['efficiency']:.4f}"
            )
    elif args.command == "sweep":
        for row in run_sweep(spec, args.out):
            print(
                f"{row['power_dbm']:5.1f} dBm {row['variant']:5s} J_det={row['j_det']:.4f} "
                f"J_lat={row['j_lat_norm']:.4f} sense={row['sense_power_frac']:.4f}"
            )
    elif args.command == "converge":
        for row in run_convergence(spec, args.out):
            print(
                f"{row['power_dbm']:5.1f} dBm {row['method']:10s} "
                f"gen={row['generation']:2d} J_det={row['j_det']:.4f}"
            )
    print(f"outputs written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
