"""Sharded control plane differentials and feasibility invariants.

Two property groups pin the sharded controller's core contracts:

* **Degenerate-shard identity** -- ``ShardedController`` with
  ``shards=1`` is an exact pass-through to the monolithic
  ``UtilityDrivenController``: bit-identical decisions on every cycle of
  randomized multi-cycle traces with arrivals, progress, completions and
  a mid-trace node failure (the same harness shape as the warm-vs-cold
  differential in ``test_warm_differential.py``).

* **Sharded feasibility** -- for any shard count, every cycle's merged
  decision is feasible per shard *and* for the whole cluster, and no
  CPU is ever double-granted across shard boundaries: each job is rated
  by exactly one shard, each placement entry lands on a node of the
  shard that produced it, and the cluster-wide grant never exceeds
  cluster capacity.
"""

import numpy as np
import pytest

from repro.cluster.node import NodeSpec
from repro.cluster.placement import Placement
from repro.config import ControllerConfig
from repro.core import ShardedController, UtilityDrivenController
from repro.workloads.jobs import Job, JobSpec
from repro.workloads.transactional import TransactionalAppSpec

from ..helpers import assert_solution_feasible

CYCLE = 600.0


def _make_nodes(n):
    return [
        NodeSpec(
            node_id=f"n{i:02d}",
            processors=2,
            mhz_per_processor=2000.0,
            memory_mb=6000.0,
        )
        for i in range(n)
    ]


def _make_jobs(rng, n_jobs, horizon):
    jobs = []
    for i in range(n_jobs):
        jobs.append(
            Job(
                JobSpec(
                    job_id=f"j{i:03d}",
                    submit_time=float(rng.uniform(0.0, horizon * 0.6)),
                    total_work=float(rng.uniform(1e6, 2e7)),
                    speed_cap_mhz=float(rng.choice([1500.0, 2500.0, 3500.0])),
                    memory_mb=float(rng.choice([800.0, 1500.0])),
                    completion_goal=float(rng.uniform(3600.0, 40000.0)),
                    importance=float(rng.choice([1.0, 1.0, 2.0])),
                )
            )
        )
    return jobs


def _make_app(n_nodes):
    return TransactionalAppSpec(
        app_id="web",
        rt_goal=0.5,
        mean_service_cycles=250.0,
        request_cap_mhz=2000.0,
        instance_memory_mb=500.0,
        min_instances=1,
        max_instances=n_nodes,
        model_kind="closed",
        think_time=0.25,
    )


def _assert_decisions_identical(a, b, cycle):
    assert dict(a.solution.job_rates) == dict(b.solution.job_rates), cycle
    assert dict(a.solution.app_allocations) == dict(b.solution.app_allocations), cycle
    entries_a = {e.vm_id: e for e in a.placement}
    entries_b = {e.vm_id: e for e in b.placement}
    assert entries_a == entries_b, cycle
    assert list(a.actions) == list(b.actions), cycle
    da, db = a.diagnostics, b.diagnostics
    assert da.tx_target == db.tx_target and da.lr_target == db.lr_target, cycle
    assert da.tx_utility_predicted == db.tx_utility_predicted, cycle
    assert da.lr_utility_mean == db.lr_utility_mean, cycle
    assert da.lr_utility_level == db.lr_utility_level, cycle
    assert np.array_equal(a.hypothetical.rates, b.hypothetical.rates), cycle
    tel_a, tel_b = da.telemetry, db.telemetry
    assert (tel_a.mode, tel_a.reason) == (tel_b.mode, tel_b.reason), cycle


def _apply_decision(decision, jobs_by_vm, t):
    """Enact a decision instantly (no virtualization delays)."""
    from repro.cluster.actions import (
        AdjustCpu,
        MigrateVm,
        ResumeVm,
        StartVm,
        StopVm,
        SuspendVm,
    )

    for action in decision.actions:
        job = jobs_by_vm.get(action.vm_id)
        if job is None:
            continue  # web instance actions: no job state to evolve
        if isinstance(action, StartVm):
            job.start(t, action.node_id, action.cpu_mhz)
        elif isinstance(action, ResumeVm):
            job.start(t, action.node_id, action.cpu_mhz)
        elif isinstance(action, MigrateVm):
            job.migrate(t, action.dst_node_id, action.cpu_mhz)
        elif isinstance(action, SuspendVm):
            job.suspend(t)
        elif isinstance(action, StopVm):
            job.cancel(t)
        elif isinstance(action, AdjustCpu):
            job.set_rate(t, action.cpu_mhz)


def _run_trace(seed, controllers, n_cycles=10, on_decision=None):
    """Drive all ``controllers`` through one randomized shared trace.

    Every controller sees the same observations and the same world --
    which evolves by the *first* controller's decisions -- so any
    divergence is the sharding layer's fault, not the harness's.  The
    trace includes a node failure at a random mid-trace cycle.
    """
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(5, 10))
    fail_cycle = int(rng.integers(3, 7))
    horizon = n_cycles * CYCLE
    nodes = _make_nodes(n_nodes)
    jobs = _make_jobs(rng, int(rng.integers(15, 40)), horizon)
    jobs_by_vm = {j.vm_id: j for j in jobs}
    placement = Placement()
    active = list(nodes)
    app_nodes = {"web": frozenset()}

    for k in range(n_cycles):
        t = k * CYCLE
        for job in jobs:
            if job.phase.name == "RUNNING":
                job.advance_to(t)
                if job.remaining_work <= 0.0:
                    job.complete(t)
                    if job.vm_id in placement:
                        placement.remove(job.vm_id)

        if k == fail_cycle:
            dead = active.pop(0)
            for entry in list(placement.entries_on(dead.node_id)):
                job = jobs_by_vm.get(entry.vm_id)
                if job is not None and job.phase.name == "RUNNING":
                    job.suspend(t)
                placement.remove(entry.vm_id)
            app_nodes = {
                "web": frozenset(n for n in app_nodes["web"] if n != dead.node_id)
            }

        load = float(rng.uniform(20.0, 160.0))
        cycles_obs = float(rng.uniform(200.0, 300.0))
        for controller in controllers:
            controller.observe_app("web", load=load, service_cycles=cycles_obs)

        kwargs = dict(
            nodes=active,
            jobs=jobs,
            current_placement=placement,
            app_nodes=app_nodes,
        )
        decisions = [controller.decide(t, **kwargs) for controller in controllers]
        if on_decision is not None:
            on_decision(k, t, active, jobs, decisions)

        _apply_decision(decisions[0], jobs_by_vm, t)
        placement = decisions[0].placement.copy()
        app_nodes = {
            "web": frozenset(
                e.node_id for e in placement if e.vm_id.startswith("tx:web@")
            )
        }
    return jobs


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_single_shard_bit_identical_to_monolithic(seed):
    """shards=1 is an exact pass-through: same decisions, bit for bit."""
    app_spec = _make_app(10)
    mono = UtilityDrivenController([app_spec])
    sharded = ShardedController([app_spec], ControllerConfig(shards=1))
    modes = []

    def check(k, t, active, jobs, decisions):
        # Compares each cycle's warm/cold mode and reason too: the
        # degenerate shard inherits the monolithic warm machinery.
        _assert_decisions_identical(decisions[0], decisions[1], cycle=k)
        modes.append(decisions[0].diagnostics.telemetry.mode)

    _run_trace(seed, [mono, sharded], on_decision=check)
    assert "warm" in modes


@pytest.mark.parametrize("seed,shards", [(7, 2), (23, 3), (52, 4)])
def test_sharded_feasible_and_no_cross_shard_double_grant(seed, shards):
    """Merged decisions stay feasible per shard and cluster-wide."""
    app_spec = _make_app(10)
    config = ControllerConfig(shards=shards)
    controller = ShardedController([app_spec], config)

    def check(k, t, active, jobs, decisions):
        decision = decisions[0]
        # Whole-cluster feasibility of the merged solution (placement
        # validity, capacity limits, one entry per granted job).
        assert_solution_feasible(decision.solution, active)

        shard_nodes = controller.last_shard_nodes
        shard_decisions = controller.last_shard_decisions
        assert len(shard_decisions) == shards

        granted_jobs: set[str] = set()
        total_grant = 0.0
        for s, sub in enumerate(shard_decisions):
            owned = {n.node_id for n in shard_nodes[s]}
            # Per-shard feasibility over the shard's own nodes.
            assert_solution_feasible(sub.solution, shard_nodes[s])
            # Every entry this shard produced sits on a node it owns.
            for entry in sub.placement:
                assert entry.node_id in owned, (k, s, entry.vm_id)
            # No job is rated by two shards.
            rated = set(sub.solution.job_rates)
            assert not (rated & granted_jobs), (k, s, rated & granted_jobs)
            granted_jobs |= rated
            total_grant += sum(e.cpu_mhz for e in sub.placement)

        # The merge preserved every shard grant exactly once.
        assert set(decision.solution.job_rates) == granted_jobs, k
        merged_grant = sum(e.cpu_mhz for e in decision.placement)
        assert merged_grant == pytest.approx(total_grant)
        # Cluster-wide CPU is never over-granted.
        capacity = sum(n.cpu_capacity for n in active)
        assert merged_grant <= capacity * (1 + 1e-9)

    _run_trace(seed, [controller], on_decision=check)


def test_node_shard_assignment_is_sticky():
    """Nodes keep their first shard across cycles (and failures)."""
    app_spec = _make_app(8)
    controller = ShardedController([app_spec], ControllerConfig(shards=3))
    assignments = {}

    def check(k, t, active, jobs, decisions):
        for node in active:
            shard = controller.node_shard(node.node_id)
            assert shard is not None
            assert assignments.setdefault(node.node_id, shard) == shard, (
                k,
                node.node_id,
            )

    _run_trace(11, [controller], on_decision=check)
