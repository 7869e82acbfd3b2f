"""Whole-run benchmark of the SLA placement reproduction.

Runs whole scenarios through the public ``ScenarioSpec`` ->
``ExperimentRunner`` -> ``Simulator.run`` path in this process and prints
one JSON result as the last line of standard output::

    python3 perfbench/run.py --workload paper --seed 42 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` reruns the workload's first scenario instance with
:class:`tracing.LayerTracer` installed and reports the per-layer metrics.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

from speed import SpeedTrack

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The default seed.  Seed 7 is held out of all tuning, so that a later
#: claim can be checked on inputs it was not written against.
DEFAULT_SEED = 42

#: Instance ``i`` of a run uses scenario seed ``seed + i * SEED_STRIDE``.
SEED_STRIDE = 1_000_003

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Recorder series that hold wall-clock times, left out of the digest.
WALL_CLOCK_SERIES = ("stage_ms:", "shard_ms:", "exact_ms")

#: ``--seconds`` the instance counts below are sized for.
NOMINAL_SECONDS = 15.0

#: Candidate tail percentiles; ``decide_ms_tail`` is the highest with at
#: least ten samples beyond it.
TAIL_PERCENTILES = (99, 98, 95, 90, 85, 80, 75)


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    Outcome metrics are deterministic per scenario seed but vary widely
    across seeds (chaos-soak's min utility runs from below 0 to 0.58), so
    a run covers ``instances`` seeds derived from ``--seed`` (scaled by
    ``--seconds / NOMINAL_SECONDS``) and runs each of them ``sweeps``
    times.
    """

    name: str
    instances: int
    sweeps: int
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper", 8, 2),
        Workload("scale-1000", 2, 2),
        Workload("chaos-soak", 32, 2),
        Workload(
            "scale-sharded",
            2,
            3,
            {
                "horizon": 14_000.0,
                "controller.shards": 4,
                "controller.shard_workers": 2,
            },
        ),
    )
}


def build_spec(workload: Workload, seed: int, overrides: Optional[dict] = None):
    """The workload's scenario spec at ``seed`` (this is set-up work)."""
    from repro.api.scenarios import scenario_spec
    from repro.api.spec import ScenarioSpec

    changes = {**workload.overrides, **(overrides or {})}
    if workload.name in ("paper", "chaos-soak"):
        spec = scenario_spec(workload.name, seed=seed)
    else:
        spec = ScenarioSpec.load(HERE / "specs" / "scale-1000.toml")
        changes["seed"] = seed
    return spec.with_overrides(changes) if changes else spec


# ----------------------------------------------------------------------
# One scenario instance
# ----------------------------------------------------------------------
@dataclass
class InstanceRun:
    seed: int
    setup_s: float
    run_s: float = math.nan
    cycles: int = 0
    expected_cycles: int = 0
    decide_ms: list = field(default_factory=list)
    digest: str = ""
    result: object = None
    error: str = ""
    #: The run raised the known enactment bug (see :func:`_is_known_bug`).
    known_bug: bool = False
    #: ``perf_counter`` stamps: set-up start, run start and end, and the
    #: start of every timed ``decide``.
    setup_at: float = 0.0
    run_at: tuple = (0.0, 0.0)
    decide_at: list = field(default_factory=list)

    @property
    def failed_cycles(self) -> int:
        if self.error:
            return self.expected_cycles
        return int(self.result.recorder.counter("degraded_cycles"))


KNOWN_BUG = (
    "the runner stops an app's last instance before starting its replacement "
    "(plan_actions orders stops first) and raises LifecycleError"
)


def _is_known_bug(exc: Exception) -> bool:
    """Whether ``exc`` is :data:`KNOWN_BUG`.  About one chaos-soak seed in
    three hundred hits it; such seeds are not valid benchmark inputs
    until the program is fixed."""
    from repro.errors import LifecycleError

    return isinstance(exc, LifecycleError) and "would violate min_instances" in str(exc)


def timed_policy_factory(run: "InstanceRun", track: Optional[SpeedTrack]) -> Callable:
    """The runner's default resilient policy, timed at its ``decide``.

    The runner wraps any non-resilient policy in ``ResilientController``;
    handing it one already wrapped keeps that path identical while the
    timer sits exactly at the boundary the runner calls.  Speed probes
    run between cycles, outside the timed call.
    """
    from repro.core.resilient import ResilientController
    from repro.experiments.runner import default_policy_factory

    class TimedResilientController(ResilientController):
        def decide(self, t, **kwargs):
            if track is not None:
                track.probe()
            started = perf_counter()
            decision = super().decide(t, **kwargs)
            run.decide_ms.append((perf_counter() - started) * 1e3)
            run.decide_at.append(started)
            return decision

    def factory(scenario):
        if not scenario.controller.resilient:
            raise ValueError(f"{scenario.name}: workloads run resilient controllers")
        return TimedResilientController(default_policy_factory(scenario), scenario.controller)

    return factory


def outcome_digest(result) -> str:
    """Hash of the simulated outcome, wall-clock fields left out."""
    summary = result.summary_metrics()
    summary.pop("decide_ms_mean")
    recorder = result.recorder.to_dict()
    recorder["series"] = {
        name: series
        for name, series in recorder["series"].items()
        if not name.startswith(WALL_CLOCK_SERIES)
    }
    payload = json.dumps(
        {"cycles": result.cycles, "summary": summary, "recorder": recorder},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def set_up(workload: Workload, run: InstanceRun, track=None, overrides=None):
    from repro.experiments.runner import ExperimentRunner

    spec = build_spec(workload, run.seed, overrides)
    scenario = spec.materialize()
    factory = timed_policy_factory(run, track)
    return spec, ExperimentRunner(scenario, policy_factory=factory)


def run_instance(
    workload: Workload, seed: int, *, tracer=None, track=None, overrides=None
) -> InstanceRun:
    """Set up and run one scenario instance.

    With a ``track``, speed probes run before set-up and between control
    cycles, and their time is taken out of ``run_s``.
    """
    gc.collect()
    if track is not None:
        track.probe()
    run = InstanceRun(seed=seed, setup_s=math.nan)
    run.setup_at = perf_counter()
    spec, runner = set_up(workload, run, track, overrides)
    run.setup_s = perf_counter() - run.setup_at
    run.expected_cycles = int(spec.horizon // spec.controller.control_cycle) + 1
    probing_before = track.spent_s if track is not None else 0.0
    try:
        with tracer or contextlib.nullcontext():
            started = perf_counter()
            result = runner.run()
            ended = perf_counter()
    except Exception as exc:  # noqa: BLE001 - a raising run is a failed run, reported
        run.error = traceback.format_exc()
        run.known_bug = _is_known_bug(exc)
        if not run.known_bug:
            print(run.error, file=sys.stderr)
        return run
    probing = (track.spent_s if track is not None else 0.0) - probing_before
    run.run_s = ended - started - probing
    run.run_at = (started, ended)
    run.result = result
    run.cycles = result.cycles
    run.digest = outcome_digest(result)
    return run


def sweep(
    workload: Workload, seeds, count: int, track: SpeedTrack
) -> tuple[list[InstanceRun], list[int]]:
    """Run ``count`` instances from the ``seeds`` iterable, in order.

    Seeds that hit the known bug are skipped and returned apart.
    """
    runs: list[InstanceRun] = []
    skipped: list[int] = []
    for seed in seeds:
        run = run_instance(workload, seed, track=track)
        if run.known_bug and len(skipped) < count:
            skipped.append(seed)
            continue
        runs.append(run)
        if len(runs) == count:
            break
    return runs, skipped


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    problems: list
    notes: list


def _percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _critical_path_model(result) -> list[float]:
    """Per-cycle modelled sharded critical path: overhead + slowest shard."""
    rec = result.recorder
    shards = sorted(n for n in rec.series_names() if n.startswith("shard_ms:"))
    if not shards:
        return []
    overhead = rec.series("stage_ms:overhead").values
    slowest = [max(vals) for vals in zip(*(rec.series(n).values for n in shards))]
    return [o + s for o, s in zip(overhead, slowest)]


def _candidate_seeds(seed: int):
    return (seed + i * SEED_STRIDE for i in itertools.count())


def measure_end_to_end(workload: Workload, seed: int, seconds: float) -> Outcome:
    """Run every instance ``workload.sweeps`` times and report the metrics.

    Wall times are divided by the machine's local slowdown, so they read
    as the reference host's time; the raw figures go to the notes.  Each
    cycle's decide time is the least over the sweeps, which drops stalls
    that other tenants of the host cause in one sweep.
    """
    problems: list[str] = []
    notes: list[str] = []
    track = SpeedTrack()
    count = max(1, round(workload.instances * seconds / NOMINAL_SECONDS))
    first, skipped = sweep(workload, _candidate_seeds(seed), count, track)
    sweeps = [first]
    seeds = [r.seed for r in first]
    if skipped:
        notes.append(f"skipped seeds {skipped}: {KNOWN_BUG}")
    while len(sweeps) < workload.sweeps and not any(r.error for r in sweeps[-1]):
        sweeps.append(sweep(workload, seeds, len(seeds), track)[0])
    runs = [r for s in sweeps for r in s]
    attempted = sum(r.expected_cycles if r.error else r.cycles for r in runs)
    failed = sum(r.failed_cycles for r in runs)
    problems += [f"seed {r.seed} raised" for r in runs if r.error]

    # The outcome must repeat exactly: across sweeps and (for a pooled
    # sharded workload) against the serial 4-shard path.
    checks = runs[len(first):]
    if workload.overrides.get("controller.shard_workers", 1) > 1:
        checks.append(
            run_instance(workload, seeds[0], overrides={"controller.shard_workers": 1})
        )
    reference = {r.seed: r for r in first}
    for check in checks:
        ref = reference[check.seed]
        if check.error or ref.error or check.digest != ref.digest:
            problems.append(
                f"seed {check.seed}: digest {check.digest or 'error'} != {ref.digest or 'error'}"
            )
            failed += ref.expected_cycles

    setups = [list(s) for s in sweeps]
    while len(setups) < SETUP_REPEATS:
        gc.collect()
        setups.append([])
        for s in seeds:
            track.probe()
            run = InstanceRun(seed=s, setup_s=math.nan, setup_at=perf_counter())
            set_up(workload, run)
            run.setup_s = perf_counter() - run.setup_at
            setups[-1].append(run)
    track.probe()
    raw_setup = [sum(r.setup_s for r in s) for s in setups]
    setup_samples = [sum(r.setup_s / track.slowdown_at(r.setup_at) for r in s) for s in setups]

    metrics = {"setup_s": (statistics.median(setup_samples), "s")}
    if not problems:
        per_sweep = [
            [[ms / track.slowdown_at(at) for ms, at in zip(r.decide_ms, r.decide_at)] for r in s]
            for s in sweeps
        ]
        decide = [min(cycle) for runs_of_seed in zip(*per_sweep) for cycle in zip(*runs_of_seed)]
        raw_decide = [
            min(cycle)
            for runs_of_seed in zip(*[[r.decide_ms for r in s] for s in sweeps])
            for cycle in zip(*runs_of_seed)
        ]
        tail_pct = next(
            (p for p in TAIL_PERCENTILES if len(decide) * (100.0 - p) / 100.0 >= 10),
            None,
        )
        if tail_pct is None:
            problems.append(f"only {len(decide)} decide samples")
            tail_pct = 50
        beyond = len(decide) * (100.0 - tail_pct) / 100.0
        slowdowns = [track.slowdown_over(*r.run_at) for r in runs]
        cycles = sum(r.cycles for r in runs)
        raw_rate = cycles / sum(r.run_s for r in runs)
        summaries = [r.result.summary_metrics() for r in first]
        metrics.update(
            cycles_per_s=(cycles / sum(r.run_s / x for r, x in zip(runs, slowdowns)), "1/s"),
            decide_ms_p50=(statistics.median(decide), "ms"),
            decide_ms_tail=(_percentile(decide, tail_pct), "ms"),
            peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            min_utility=(statistics.median(s["min_utility"] for s in summaries), "utility"),
            work_done=(
                statistics.fmean(
                    sum(j.stats.cpu_time_integral for j in r.result.jobs) for r in first
                )
                * 1e-6,
                "Tcycles",
            ),
            disruptive_actions=(
                statistics.fmean(s["disruptive_actions"] for s in summaries),
                "count",
            ),
        )
        notes.append(
            f"median machine slowdown {statistics.median(slowdowns):.3f} "
            f"({len(track.samples)} probes, {track.spent_s:.2f} s); raw "
            f"setup_s {statistics.median(raw_setup):.4f} s, cycles_per_s {raw_rate:.3f}, "
            f"decide_ms_p50 {statistics.median(raw_decide):.3f} ms, "
            f"decide_ms_tail {_percentile(raw_decide, tail_pct):.3f} ms"
        )
        notes.append(
            f"decide_ms_tail is p{tail_pct:g} over {len(decide)} per-cycle decide minima "
            f"({beyond:.0f} beyond it); {len(sweeps)} sweeps x {len(seeds)} seeds"
        )
        notes.append(
            "jobs_completed per seed: "
            + " ".join(str(int(s["jobs_completed"])) for s in summaries[:8])
            + (" ..." if len(summaries) > 8 else "")
        )
        model = [ms for r in first for ms in _critical_path_model(r.result)]
        if model:
            notes.append(
                f"core.sharded.critical_path_ms (MODEL: overhead + slowest shard) "
                f"p50 {statistics.median(model):.2f} ms vs measured raw decide_ms_p50 "
                f"{statistics.median(raw_decide):.2f} ms"
            )
    metrics["ok_cycle_fraction"] = (1.0 - failed / max(attempted, 1), "fraction")
    return Outcome(metrics, max(attempted, 1), failed, problems, notes)


COUNT_METRICS = (
    "sim.events_fired",
    "sim.events_scheduled",
    "sim.events_cancelled",
    "sim.recorder_calls",
    "runner.actions",
    "workloads.phase_reads",
    "workloads.advance_calls",
    "workloads.predict_calls",
    "perf.snapshot_calls",
    "core.eq_evals",
    "core.invalidations",
    "cluster.validate_calls",
    "faults.events",
)

#: Metric name of each tracer layer's self time.
SELF_TIME_METRICS = {
    "sim.schedule": "sim.schedule_ms",
    "sim.dispatch": "sim.dispatch_ms",
    "sim.recorder": "sim.recorder_ms",
    "runner.bookkeeping": "runner.bookkeeping_ms",
    "runner.event": "runner.event_ms",
    "workloads.mutate": "workloads.mutate_ms",
    "perf.snapshot": "perf.snapshot_ms",
    "core.hypothetical.record": "core.hypothetical.record_ms",
    "core.resilient.guard": "core.resilient.guard_ms",
    "core.policy": "core.policy_ms",
    "cluster.validate": "cluster.validate_ms",
}

STAGES = ("decide", "demand", "arbiter", "equalize", "requests", "solver", "planner")


def layer_metrics(tracer, run: InstanceRun) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in ms per run)."""
    result = run.result
    rec = result.recorder
    counts = tracer.counts
    unknown = set(tracer.self_s) - set(SELF_TIME_METRICS)
    if unknown:
        raise RuntimeError(f"spans outside the reported layers: {sorted(unknown)}")
    m: dict[str, float] = {}
    for name in ("sim.events_fired", "sim.events_scheduled", "sim.events_cancelled"):
        m[name] = counts[name]
    m["sim.fire_ratio"] = counts["sim.events_fired"] / max(counts["sim.events_scheduled"], 1)
    m["sim.recorder_calls"] = counts["sim.recorder_calls"]
    for layer, name in SELF_TIME_METRICS.items():
        m[name] = tracer.self_s[layer] * 1e3
    m["runner.cycle_ms"] = tracer.total_s["runner.bookkeeping"] * 1e3
    log = result.action_log
    m["runner.actions"] = log.disruptive_total + log.adjustments
    for name in ("phase_reads", "advance_calls", "predict_calls"):
        m[f"workloads.{name}"] = counts[f"workloads.{name}"]
    m["perf.snapshot_calls"] = counts["perf.snapshot_calls"]
    for stage in STAGES:
        series = "stage_ms:total" if stage == "decide" else f"stage_ms:{stage}"
        m[f"core.{stage}_ms"] = float(rec.series(series).values.sum()) if rec.has_series(series) else 0.0
    summary = result.summary_metrics()
    m["core.eq_evals"] = rec.counter("eq_evals_total")
    m["core.eq_cache_hit_rate"] = summary["eq_cache_hit_rate"]
    m["core.warm_cycle_fraction"] = summary["warm_cycle_fraction"]
    m["core.invalidations"] = sum(
        v for k, v in rec.counters.items() if k.startswith("invalidations:")
    )
    m["cluster.validate_calls"] = counts["cluster.validate_calls"]
    model = _critical_path_model(result)
    overhead = float(rec.series("stage_ms:overhead").values.sum()) if model else 0.0
    m["core.sharded.overhead_ms"] = overhead
    m["core.sharded.critical_path_ms"] = sum(model)
    m["core.sharded.shard_ms_max"] = sum(model) - overhead
    m["core.sharded.imbalance"] = (
        float(rec.series("shard_imbalance").values.mean()) if model else 0.0
    )
    m["faults.events"] = rec.counter("node_failures") + rec.counter("node_brownouts")
    wall_ms = run.run_s * 1e3
    m["trace.wall_ms"] = wall_ms
    m["unattributed_ms"] = wall_ms - sum(tracer.self_s.values()) * 1e3
    return m


def measure_layers(workload: Workload, seed: int, seconds: float) -> Outcome:
    from tracing import LayerTracer

    problems: list[str] = []
    notes: list[str] = []
    traced: list[tuple[InstanceRun, dict]] = []
    candidates = _candidate_seeds(seed)
    seed = next(candidates)
    started = perf_counter()
    while True:
        tracer = LayerTracer()
        pass_started = perf_counter()
        run = run_instance(workload, seed, tracer=tracer)
        if run.known_bug and not traced:
            notes.append(f"skipped seed {seed}: {KNOWN_BUG}")
            seed = next(candidates)
            continue
        if run.error:
            problems.append(f"seed {seed} raised under tracing")
            traced.append((run, {}))
            break
        traced.append((run, layer_metrics(tracer, run)))
        pass_s = perf_counter() - pass_started
        if len(traced) >= 2 and perf_counter() - started + pass_s > seconds:
            break
    plain = run_instance(workload, seed)
    runs = [run for run, _ in traced] + [plain]
    attempted = sum(r.expected_cycles if r.error else r.cycles for r in runs)
    failed = sum(r.failed_cycles for r in runs)
    if any(r.error for r in runs):
        return Outcome({}, attempted, attempted, problems or ["untraced run raised"], notes)

    for run in runs[1:]:
        if run.digest != runs[0].digest:
            problems.append(f"digest {run.digest} != {runs[0].digest} (traced vs untraced)")
            failed += run.cycles
    layer_runs = [m for _, m in traced]
    for name in COUNT_METRICS:
        values = {m[name] for m in layer_runs}
        if len(values) != 1:
            problems.append(f"count {name} differs across runs: {sorted(values)}")
    # Report the run of median wall time whole, so its layers still add
    # up to its wall time.
    metrics = dict(
        sorted(layer_runs, key=lambda m: m["trace.wall_ms"])[(len(layer_runs) - 1) // 2]
    )
    traced_rate = statistics.median(r.cycles / r.run_s for r, _ in traced)
    plain_rate = plain.cycles / plain.run_s
    metrics["trace.overhead_pct"] = (plain_rate / traced_rate - 1.0) * 100.0
    notes += [
        f"{len(traced)} traced runs of seed {seed}; tracing overhead: "
        f"{traced_rate:.2f} cycles/s traced vs {plain_rate:.2f} untraced",
        "layer self times + unattributed_ms = trace.wall_ms: "
        f"{sum(metrics[n] for n in SELF_TIME_METRICS.values()) + metrics['unattributed_ms']:.1f} "
        f"= {metrics['trace.wall_ms']:.1f} ms "
        f"(unattributed {100 * metrics['unattributed_ms'] / metrics['trace.wall_ms']:.2f}%)",
    ]
    if metrics["core.sharded.critical_path_ms"]:
        notes.append(
            f"core.sharded.critical_path_ms (MODEL: overhead + slowest shard) "
            f"{metrics['core.sharded.critical_path_ms']:.1f} ms vs measured "
            f"core.decide_ms {metrics['core.decide_ms']:.1f} ms per run"
        )
    units = {name: _layer_unit(name) for name in metrics}
    return Outcome(
        {name: (value, units[name]) for name, value in metrics.items()},
        attempted,
        failed,
        problems,
        notes,
    )


def _layer_unit(name: str) -> str:
    if "_ms" in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    return "count" if name in COUNT_METRICS else "ratio"


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    measure = measure_layers if args.trace else measure_end_to_end
    outcome = measure(workload, args.seed, args.seconds)
    for name, (value, _unit) in list(outcome.metrics.items()):
        if not math.isfinite(value):
            outcome.problems.append(f"{name} is {value}")
            del outcome.metrics[name]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for problem in outcome.problems:
        print(f"  FAILED CHECK: {problem}")
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
