"""Per-layer span counters for the traced benchmark run.

The tracer wraps racecma's public functions at their import sites, from
outside the package: ``feedback`` binds the radar, scenario and seeding
functions by value, and ``objective``, ``race`` and ``baselines`` bind
``run_episode`` by value, so each of those module names is replaced (and
restored by :meth:`Tracer.close`). Every span adds its duration to its
layer's counters and to its parent's child time, so a layer's self time is
its duration minus the time of the wrapped calls it made. Counters stay in
memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

# (module, attribute, layer name). A function bound in several modules is
# listed once per import site, under one layer name.
SITES = (
    *(
        (mod, "derive_seed", "seeding.derive_seed")
        for mod in ("seeding", "feedback", "objective", "race", "cma", "baselines", "bench")
    ),
    ("feedback", "propagate_target", "scenario.propagate_target"),
    ("feedback", "realize_channel", "radar.realize_channel"),
    ("feedback", "synthesize_rx_grid", "radar.synthesize_rx_grid"),
    ("feedback", "matched_filter", "radar.matched_filter"),
    ("feedback", "compute_resi", "radar.compute_resi"),
    *(
        (mod, "run_episode", "feedback.run_episode")
        for mod in ("feedback", "objective", "race", "baselines")
    ),
    ("objective", "IsacObjective.evaluate", "objective.evaluate"),
    ("objective", "IsacObjective.peek_values", "objective.peek_values"),
    ("cma", "update", "cma.update"),
    ("race", "update", "cma.update"),
    ("cma", "sample_population", "cma.sample_population"),
    ("race", "structured_sample", "race.structured_sample"),
    ("race", "stage1_screen", "race.stage1_screen"),
    ("race", "stage2_refine", "race.stage2_refine"),
    ("bench", "race_cma_optimize", "race.race_cma_optimize"),
    ("bench", "ipn_optimize", "baselines.ipn_optimize"),
    ("bench", "spsa_optimize", "baselines.spsa_optimize"),
    ("bench", "map_calibrate", "baselines.map_calibrate"),
    ("bench", "assess", "bench.assess"),
    ("bench", "run_method", "bench.run_method"),
)

RADAR = tuple(f"radar.{fn}" for fn in (
    "realize_channel", "synthesize_rx_grid", "matched_filter", "compute_resi"))
METHODS = ("MAP", "IPN", "SPSA", "CMA-ES", "RACE-CMA")
# Full passes over a (subcarrier x symbol) complex128 grid that
# synthesize_rx_grid makes without an NLOS path: noise draw (1), noise
# scaling (2), echo outer product (1), amplitude scaling (2), power scaling
# (2), pilot product (3), noise addition (3).
SYNTH_GRID_PASSES = 14


class Tracer:
    """Span counters keyed by layer name: [calls, total ns, child ns]."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self.stack = [0]
        self.eval_ns: list[int] = []
        self.method_ns: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.frames = 0
        self.flops = 0
        self.bytes = 0
        self.episodes = 0
        self.repeat_episodes = 0
        self.repeat_frames = 0
        self._frames_seen: dict[tuple, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._posts = {
            "feedback.run_episode": self._after_episode,
            "radar.matched_filter": self._after_matched_filter,
            "radar.synthesize_rx_grid": self._after_synthesize,
            "objective.evaluate": self._after_evaluate,
            "bench.run_method": self._after_run_method,
        }

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        stack = self.stack
        clock = time.perf_counter_ns
        post = self._posts.get(name)

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stack[-1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += child
            if post is not None:
                post(result, args, kwargs, duration)
            return result

        return span

    def install(self) -> None:
        for module_name, attr, name in SITES:
            owner = importlib.import_module(f"racecma.{module_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def new_rep(self) -> None:
        """Seed reuse counts within a rep; forget what earlier reps simulated."""
        self._frames_seen.clear()

    # -- per-call hooks ---------------------------------------------------

    def _after_episode(self, trace, args, kwargs, _duration) -> None:
        scenario = args[0] if args else kwargs["scenario"]
        seed = args[3] if len(args) > 3 else kwargs.get("seed", 0)
        n = trace.horizon
        key = (scenario, seed)
        seen = self._frames_seen.get(key)
        self.episodes += 1
        self.frames += n
        if seen is not None:
            self.repeat_episodes += 1
            self.repeat_frames += min(n, seen)
        self._frames_seen[key] = max(n, seen or 0)

    def _after_matched_filter(self, _ddmap, args, _kwargs, _duration) -> None:
        n_sc, n_sym = args[0].samples.shape
        n_delay, n_doppler = len(args[1][0]), len(args[1][1])
        # Two complex matrix products (8 real flops per multiply-add) plus
        # the elementwise conj(pilot) * samples product (6 flops each).
        self.flops += 8 * (n_delay * n_sc * n_sym + n_delay * n_sym * n_doppler)
        self.flops += 6 * n_sc * n_sym

    def _after_synthesize(self, grid, _args, _kwargs, _duration) -> None:
        self.bytes += SYNTH_GRID_PASSES * grid.samples.nbytes

    def _after_evaluate(self, _value, _args, _kwargs, duration) -> None:
        self.eval_ns.append(duration)

    def _after_run_method(self, _run, args, kwargs, duration) -> None:
        totals = self.method_ns[args[0] if args else kwargs["method"]]
        totals[0] += 1
        totals[1] += duration

    # -- report -----------------------------------------------------------

    def metrics(self, reps: int, body_s: float, ledger: dict[str, float]) -> dict[str, tuple]:
        """Per-layer metrics as {name: (value, unit)} over ``reps`` traced reps.

        A ratio whose base is zero (a layer the workload never calls) is 0.
        """
        def per(value: float, base: float, scale: float = 1.0) -> float:
            return value / base / scale if base else 0.0

        calls = {k: v[0] for k, v in self.stats.items()}
        total = {k: v[1] for k, v in self.stats.items()}
        own = {k: v[1] - v[2] for k, v in self.stats.items()}
        frames = self.frames
        out: dict[str, tuple] = {}
        for name in RADAR:
            out[f"{name}.us_per_call"] = (per(total[name], calls[name], 1e3), "us")
            out[f"{name}.calls"] = (calls[name], "count")
        radar_ns = sum(total[name] for name in RADAR)
        out["radar.us_per_frame"] = (per(radar_ns, frames, 1e3), "us")
        out["radar.matched_filter.flops_per_call"] = (
            per(self.flops, calls["radar.matched_filter"]), "flop-computed")
        out["radar.synthesize_rx_grid.bytes_per_call"] = (
            per(self.bytes, calls["radar.synthesize_rx_grid"]), "B-computed")
        out["seeding.derive_seed.us_per_call"] = (
            per(total["seeding.derive_seed"], calls["seeding.derive_seed"], 1e3), "us")
        out["seeding.derive_seed.calls_per_frame"] = (
            per(calls["seeding.derive_seed"], frames), "1/frame")
        out["scenario.propagate_target.us_per_call"] = (
            per(total["scenario.propagate_target"], calls["scenario.propagate_target"], 1e3), "us")
        out["feedback.run_episode.calls"] = (calls["feedback.run_episode"], "count")
        out["feedback.frames"] = (frames, "count")
        out["feedback.run_episode.self_us_per_frame"] = (
            per(own["feedback.run_episode"], frames, 1e3), "us")
        out["feedback.measured_frame_share"] = (per(calls["radar.compute_resi"], frames), "share")
        out["objective.evaluate.calls"] = (calls["objective.evaluate"], "count")
        p50, p90 = np.percentile(self.eval_ns, (50, 90)) / 1e6 if self.eval_ns else (0.0, 0.0)
        out["objective.evaluate.ms_p50"] = (float(p50), "ms")
        out["objective.evaluate.ms_p90"] = (float(p90), "ms")
        out["objective.peek_values.calls"] = (calls["objective.peek_values"], "count")
        out["objective.seed_reuse_share"] = (per(self.repeat_episodes, self.episodes), "share")
        out["objective.frame_reuse_share"] = (per(self.repeat_frames, frames), "share")
        for kind in ("stage1", "stage2", "full"):
            out[f"objective.ledger.n_eq_{kind}"] = (ledger[kind] / reps, "count")
        for name in ("cma.update", "cma.sample_population", "race.structured_sample",
                     "race.stage1_screen", "race.stage2_refine"):
            out[f"{name}.us_per_call"] = (per(total[name], calls[name], 1e3), "us")
        # One structured_sample call per racing generation.
        out["race.race_cma_optimize.self_ms_per_generation"] = (
            per(own["race.race_cma_optimize"], calls["race.structured_sample"], 1e6), "ms")
        for name in ("baselines.ipn_optimize", "baselines.spsa_optimize",
                     "baselines.map_calibrate"):
            out[f"{name}.self_ms"] = (per(own[name], calls[name], 1e6), "ms")
        out["bench.assess.ms_per_call"] = (
            per(total["bench.assess"], calls["bench.assess"], 1e6), "ms")
        out["bench.assess.share_of_wall"] = (per(total["bench.assess"], body_s, 1e9), "share")
        for method in METHODS:
            n, ns = self.method_ns.get(method, (0, 0))
            out[f"bench.run_method.{method}.s"] = (per(ns, n, 1e9), "s")
        return out


class RunProbe:
    """Collects the objectives and method runs the harness creates in a rep.

    ``bench`` builds one ``IsacObjective`` per optimizer run and per
    assessment; summing their ledgers gives the exact n_eq a rep charged.
    ``bench.run_method`` returns each run's own ``failed`` flag. The probe
    swaps ``bench.IsacObjective`` for a subclass that records its instances
    and wraps ``bench.run_method``, for the life of the worker process; both
    cost a few list appends per rep, so the probe stays on in untraced runs.
    """

    def __init__(self) -> None:
        self.objectives: list = []
        self.runs: list = []
        bench = importlib.import_module("racecma.bench")
        objectives, runs = self.objectives, self.runs
        base_objective, run_method = bench.IsacObjective, bench.run_method

        class RecordedObjective(base_objective):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                objectives.append(self)

        def recorded_run_method(*args, **kwargs):
            run = run_method(*args, **kwargs)
            runs.append(run)
            return run

        bench.IsacObjective = RecordedObjective
        bench.run_method = recorded_run_method

    def take(self) -> tuple[Fraction, dict[str, float], int]:
        """Exact n_eq, n_eq per ledger kind and flagged runs since the last take."""
        total = sum((o.ledger.exact_total for o in self.objectives), Fraction(0))
        kinds: dict[str, float] = defaultdict(float)
        for obj in self.objectives:
            for kind, (_, n_eq) in obj.ledger.breakdown.items():
                kinds[kind] += n_eq
        flagged = sum(1 for run in self.runs if run.failed)
        self.objectives.clear()
        self.runs.clear()
        return total, dict(kinds), flagged
