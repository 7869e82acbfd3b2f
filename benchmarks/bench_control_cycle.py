"""PERF -- end-to-end controller decision cost, as a scaling grid.

The paper's control cycle is 600 s; the decision must cost milliseconds,
not minutes.  This bench measures one full ``decide()`` -- demand
estimation, arbitration, hypothetical equalization, placement and action
planning together -- on mid-run-like states across a nodes x jobs grid,
and emits ``BENCH_control_cycle.json``: the repo's canonical perf
artifact.  Every perf PR quotes its numbers against the previous run so
the decide() latency trajectory stays visible (schema and comparison
workflow: ``benchmarks/README.md``).

Since the sharded control plane (schema version 3) the artifact also
carries a **headline point**: 1000 nodes x 10000 jobs, decided both by
the monolithic controller and by the sharded one
(``ControllerConfig.shards`` sub-controllers merged by the shard
arbiter).  The sharded row reports two latencies:

* ``sharded_wall_median_ms`` -- the measured wall time of the whole
  sharded decide (partition + every shard serially + merge), which is
  what a sharded run pays: every shard decides in the calling process
  (78.2 ms in the committed artifact, against 64.5 ms monolithic);
* ``critical_path_median_ms`` -- a MODEL, not a measurement:
  partition/route/merge overhead plus the *slowest single shard*, i.e.
  the cycle latency if each shard had a core of its own, which no
  executor in this repo provides (25.0 ms in the committed artifact).
  The perf gate still compares it.

Environment knobs:

* ``BENCH_SMOKE=1`` -- run only the smallest grid point (CI perf-smoke).
* ``BENCH_SHARDS=K`` -- shard count for the headline point (default 4).
* ``BENCH_OUTPUT=path`` -- where to write the JSON artifact (defaults to
  ``BENCH_control_cycle.json`` in the working directory).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time

import numpy as np

from repro.cluster import Placement, PlacementEntry, homogeneous_cluster
from repro.cluster.placement import instance_vm_id
from repro.config import ControllerConfig
from repro.core import ShardedController, UtilityDrivenController
from repro.types import WorkloadKind
from repro.workloads import Job, JobSpec, TransactionalAppSpec

#: (nodes, jobs) grid points.  The first is the CI smoke point; the
#: 100x1000 point is the acceptance anchor quoted in perf PRs; 200x2000
#: is the ROADMAP's production-scale target.
SCALING_GRID: list[tuple[int, int]] = [(25, 150), (50, 500), (100, 1000), (200, 2000)]

#: The sharded headline point: an order of magnitude past the grid.
HEADLINE_POINT: tuple[int, int] = (1000, 10_000)

#: decide() repetitions per grid point (first call additionally warms up).
_REPEATS = 9

#: Repetitions at the headline point (each decide costs tens of ms).
_HEADLINE_REPEATS = 5


def _headline_shards() -> int:
    return int(os.environ.get("BENCH_SHARDS", "4"))


def build_state(
    num_nodes: int = 25,
    num_jobs: int = 150,
    t: float = 30_000.0,
    *,
    warm: bool = True,
    shards: int = 1,
):
    """A mid-run-like cluster state: ~3 jobs running per node, one web app.

    ``warm=False`` builds the controller with cross-cycle warm starts
    disabled (``ControllerConfig(warm_start=False)``): the cold path,
    bit-identical in results, measured separately by the scaling grid.
    ``shards > 1`` builds a :class:`ShardedController` over the same
    state instead of the monolithic controller.
    """
    rng = np.random.default_rng(7)
    cluster = homogeneous_cluster(num_nodes)
    spec = TransactionalAppSpec(
        app_id="web", rt_goal=0.4, mean_service_cycles=300.0,
        request_cap_mhz=3000.0, instance_memory_mb=400.0,
        min_instances=1, max_instances=num_nodes,
        model_kind="closed", think_time=0.2,
    )
    config = ControllerConfig(warm_start=warm, shards=shards)
    if shards > 1:
        controller = ShardedController([spec], config)
    else:
        controller = UtilityDrivenController([spec], config)
    controller.observe_app("web", load=210.0, service_cycles=300.0)

    jobs = []
    node_ids = cluster.node_ids
    slots: dict[str, int] = {}
    for i in range(num_jobs):
        submit = float(rng.uniform(0.0, t))
        job = Job(JobSpec(
            job_id=f"j{i:04d}", submit_time=submit, total_work=45e6,
            speed_cap_mhz=3000.0, memory_mb=1200.0, completion_goal=60_000.0,
        ))
        node = node_ids[i % num_nodes]
        if slots.get(node, 0) < 3:
            job.start(submit, node, float(rng.uniform(500.0, 3000.0)))
            job.advance_to(t)
            slots[node] = slots.get(node, 0) + 1
        jobs.append(job)

    placement = Placement()
    app_nodes = {"web": frozenset(node_ids)}
    # A web instance runs on every node, so the placement in force holds
    # one entry per node (the planner reads instance states from it).
    for node in node_ids:
        placement.add(PlacementEntry(
            vm_id=instance_vm_id("web", node), node_id=node,
            cpu_mhz=500.0, memory_mb=400.0, kind=WorkloadKind.TRANSACTIONAL,
        ))
    for job in jobs:
        if job.node_id is not None:
            placement.add(PlacementEntry(
                vm_id=job.vm_id, node_id=job.node_id,
                cpu_mhz=job.rate, memory_mb=1200.0,
                kind=WorkloadKind.LONG_RUNNING,
            ))
    return controller, cluster, jobs, placement, app_nodes, t


def machine_calibration_ms() -> float:
    """Median runtime of a fixed reference workload on this machine.

    Dividing decide() latencies by this factor gives machine-normalized
    numbers, so artifacts recorded on different hardware stay roughly
    comparable along the committed trajectory.  The workload mixes numpy
    reductions with Python-level loops in proportions resembling the
    controller's hot path.
    """
    rng = np.random.default_rng(0)
    a = rng.uniform(size=4096)
    b = rng.uniform(size=4096)

    def reference() -> float:
        acc = 0.0
        for _ in range(64):
            acc += float(np.minimum(a, b).sum())
        for i in range(20_000):
            acc += i * 1e-9
        return acc

    reference()  # warm-up
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        reference()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def _time_decides(
    num_nodes: int, num_jobs: int, repeats: int, warm: bool, shards: int = 1
):
    """Median/p95 of repeated decide() calls on one shared controller.

    Repeated decides over a quasi-static state are exactly the
    steady-state regime of a deployed controller; with ``warm=True`` the
    previous call's equalized level seeds each call from the second on
    (the warm-up call is the cold first cycle).
    """
    controller, cluster, jobs, placement, app_nodes, t = build_state(
        num_nodes, num_jobs, warm=warm, shards=shards
    )
    nodes = cluster.active_nodes()

    def decide():
        return controller.decide(
            t, nodes=nodes, jobs=jobs, current_placement=placement,
            app_nodes=app_nodes,
        )

    decision = decide()  # warm-up; also validated below
    decision.placement.validate(cluster)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        decision = decide()
        samples.append((time.perf_counter() - t0) * 1e3)
    samples.sort()
    median = statistics.median(samples)
    p95 = samples[min(len(samples) - 1, int(round(0.95 * (len(samples) - 1))))]
    return median, p95, decision


def measure_point(num_nodes: int, num_jobs: int, repeats: int = _REPEATS) -> dict:
    """Warm- and cold-path decide() latency on one grid point.

    ``decide_median_ms`` / ``decide_p95_ms`` are the **steady-state warm
    path** (the anchor quoted in perf PRs -- what a long-running
    controller pays per cycle); ``decide_cold_*`` measure the same state
    with cross-cycle warm starts disabled.  Warm and cold placements are
    bit-identical (tests/property/test_warm_differential.py), so the gap
    is pure control-plane caching.
    """
    warm_median, warm_p95, decision = _time_decides(
        num_nodes, num_jobs, repeats, warm=True
    )
    cold_median, cold_p95, _ = _time_decides(num_nodes, num_jobs, repeats, warm=False)
    telemetry = decision.diagnostics.telemetry
    return {
        "nodes": num_nodes,
        "jobs": num_jobs,
        "population": decision.diagnostics.population_size,
        "repeats": repeats,
        "decide_median_ms": warm_median,
        "decide_p95_ms": warm_p95,
        "decide_cold_median_ms": cold_median,
        "decide_cold_p95_ms": cold_p95,
        "warm_mode": telemetry.mode,
        "eq_cache_hit_rate": telemetry.cache_hit_rate,
        "eq_seed_hits": telemetry.seed_hits,
        "eq_seed_misses": telemetry.seed_misses,
    }


def measure_sharded_point(
    num_nodes: int, num_jobs: int, shards: int, repeats: int = _HEADLINE_REPEATS
) -> dict:
    """The sharded headline: monolithic vs sharded on one big point.

    The monolithic side reuses the warm-path measurement.  The sharded
    side times the same repeated-decide regime and additionally extracts,
    from each decision's own telemetry, the modelled **critical path**:
    the ``stage_ms:overhead`` (partition + route + merge) plus the
    slowest single shard's total -- the latency with one core per shard,
    which no executor here provides.  The measured wall time is
    reported alongside; every shard runs serially in the calling
    process, so that is what a sharded run pays.
    """
    mono_median, mono_p95, _ = _time_decides(num_nodes, num_jobs, repeats, warm=True)

    controller, cluster, jobs, placement, app_nodes, t = build_state(
        num_nodes, num_jobs, warm=True, shards=shards
    )
    nodes = cluster.active_nodes()

    def decide():
        return controller.decide(
            t, nodes=nodes, jobs=jobs, current_placement=placement,
            app_nodes=app_nodes,
        )

    decision = decide()  # cold first cycle; warm path from here on
    decision.placement.validate(cluster)
    walls, overheads, criticals = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        decision = decide()
        walls.append((time.perf_counter() - t0) * 1e3)
        telemetry = decision.diagnostics.telemetry
        overhead = telemetry.stage_ms.get("overhead", 0.0)
        slowest = max(
            st.stage_ms.get("total", 0.0)
            for st in decision.diagnostics.shard_telemetry
        )
        overheads.append(overhead)
        criticals.append(overhead + slowest)
    return {
        "nodes": num_nodes,
        "jobs": num_jobs,
        "shards": shards,
        "repeats": repeats,
        "population": decision.diagnostics.population_size,
        "monolithic_median_ms": mono_median,
        "monolithic_p95_ms": mono_p95,
        "sharded_wall_median_ms": statistics.median(walls),
        "overhead_median_ms": statistics.median(overheads),
        "critical_path_median_ms": statistics.median(criticals),
        "critical_path_speedup": mono_median / statistics.median(criticals),
        "shard_imbalance": decision.diagnostics.shard_imbalance,
        "warm_mode": decision.diagnostics.telemetry.mode,
    }


def run_grid(smoke: bool = False) -> dict:
    """Measure the grid and return the full artifact document.

    If a previous artifact exists at the output path (the repo commits
    one per perf PR), its points are carried over under ``previous`` so
    the new file always shows one step of the trajectory.
    """
    grid = SCALING_GRID[:1] if smoke else SCALING_GRID
    calibration = machine_calibration_ms()
    points = []
    for num_nodes, num_jobs in grid:
        point = measure_point(num_nodes, num_jobs)
        point["decide_median_normalized"] = point["decide_median_ms"] / calibration
        point["decide_p95_normalized"] = point["decide_p95_ms"] / calibration
        point["decide_cold_median_normalized"] = (
            point["decide_cold_median_ms"] / calibration
        )
        point["decide_cold_p95_normalized"] = point["decide_cold_p95_ms"] / calibration
        points.append(point)
    doc = {
        "bench": "control_cycle_scaling",
        "schema_version": 3,
        "label": os.environ.get(
            "BENCH_LABEL", "sharded control plane, 1000x10000 headline (PR 6)"
        ),
        "smoke": smoke,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "calibration_ms": calibration,
        },
        "points": points,
    }
    if not smoke:
        num_nodes, num_jobs = HEADLINE_POINT
        sharded = measure_sharded_point(num_nodes, num_jobs, _headline_shards())
        sharded["critical_path_normalized"] = (
            sharded["critical_path_median_ms"] / calibration
        )
        sharded["monolithic_median_normalized"] = (
            sharded["monolithic_median_ms"] / calibration
        )
        # The headline claim the artifact exists to carry: per-core, the
        # sharded cycle beats the monolithic one on the same point.
        assert (
            sharded["critical_path_median_ms"] < sharded["monolithic_median_ms"]
        ), (
            f"sharded critical path {sharded['critical_path_median_ms']:.2f} ms "
            f"did not beat monolithic {sharded['monolithic_median_ms']:.2f} ms"
        )
        doc["sharded"] = sharded
    prior = _read_prior_artifact()
    if prior is not None:
        doc["previous"] = {
            "label": prior.get("label", "previous run"),
            "machine": prior.get("machine"),
            "points": prior.get("points"),
        }
        if prior.get("sharded") is not None:
            doc["previous"]["sharded"] = prior["sharded"]
    return doc


def _artifact_path() -> str:
    return os.environ.get("BENCH_OUTPUT", "BENCH_control_cycle.json")


def _read_prior_artifact() -> dict | None:
    try:
        with open(_artifact_path()) as fh:
            prior = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return prior if prior.get("bench") == "control_cycle_scaling" else None


def _write_artifact(doc: dict) -> str:
    path = _artifact_path()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def test_control_cycle_scaling():
    """Measure the scaling grid and write ``BENCH_control_cycle.json``."""
    smoke = os.environ.get("BENCH_SMOKE", "") == "1"
    doc = run_grid(smoke=smoke)
    path = _write_artifact(doc)
    header = (
        f"{'nodes':>6} {'jobs':>6} {'warm ms':>9} {'cold ms':>9} "
        f"{'p95 ms':>8} {'norm':>7} {'hit%':>6}"
    )
    print(f"\n{header}")
    for p in doc["points"]:
        print(
            f"{p['nodes']:>6} {p['jobs']:>6} {p['decide_median_ms']:>9.2f} "
            f"{p['decide_cold_median_ms']:>9.2f} {p['decide_p95_ms']:>8.2f} "
            f"{p['decide_median_normalized']:>7.3f} "
            f"{100 * p['eq_cache_hit_rate']:>6.1f}"
        )
    sharded = doc.get("sharded")
    if sharded is not None:
        print(
            f"{sharded['nodes']:>6} {sharded['jobs']:>6} "
            f"sharded x{sharded['shards']}: critical path "
            f"{sharded['critical_path_median_ms']:.2f} ms "
            f"(mono {sharded['monolithic_median_ms']:.2f} ms, "
            f"{sharded['critical_path_speedup']:.2f}x; "
            f"serial wall {sharded['sharded_wall_median_ms']:.2f} ms)"
        )
    print(f"artifact: {path} (calibration {doc['machine']['calibration_ms']:.2f} ms)")
    assert all(p["decide_median_ms"] > 0 for p in doc["points"])


def test_controller_decide(benchmark):
    """Single-point pytest-benchmark view (25 nodes, ~150 jobs)."""
    controller, cluster, jobs, placement, app_nodes, t = build_state()

    decision = benchmark(
        lambda: controller.decide(
            t,
            nodes=cluster.active_nodes(),
            jobs=jobs,
            current_placement=placement,
            app_nodes=app_nodes,
        )
    )

    diag = decision.diagnostics
    print(
        f"\ndecision: tx={diag.tx_target:.0f} MHz lr={diag.lr_target:.0f} MHz "
        f"population={diag.population_size} actions={len(decision.actions)}"
    )
    decision.placement.validate(cluster)
    assert diag.population_size > 100


if __name__ == "__main__":
    doc = run_grid(smoke=os.environ.get("BENCH_SMOKE", "") == "1")
    print(json.dumps(doc, indent=2))
    _write_artifact(doc)
