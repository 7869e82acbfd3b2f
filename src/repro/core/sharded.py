"""Sharded hierarchical control plane: one monolithic decide() per shard.

One :class:`~repro.core.controller.UtilityDrivenController` pass is
O(jobs x nodes) in its placement stage; a single solver sweep over a
1000-node cluster dominates the control cycle.  The
:class:`ShardedController` keeps the paper's controller *unchanged* and
splits the problem structurally:

1. the topology is partitioned into ``ControllerConfig.shards`` shards:
   each node seen for the first time joins the least-populated shard
   (:func:`~repro.core.shard_arbiter.least_populated_shard`), and keeps
   it, so a node failure in one shard never moves another shard's nodes
   or jobs;
2. jobs follow their hosting node's shard; jobs without a node
   (newly-submitted, suspended-by-failure) are routed once by the
   top-level :class:`~repro.core.shard_arbiter.ShardArbiter`, which
   splits cluster CPU across shards on the shard-aggregated
   hypothetical-utility consumed curve and steers arrivals toward the
   largest headroom;
3. each shard runs the full monolithic ``decide()`` over *its* nodes and
   jobs, in the calling process and in shard order, keeping its own
   previous equalized level as its warm seed;
4. the per-shard decisions are merged into one cluster-level
   :class:`~repro.core.controller.ControlDecision` whose placements are
   disjoint by construction (each shard only places on its own nodes).

With ``shards=1`` the controller is an exact pass-through to the
monolithic pipeline -- bit-identical decisions, pinned by
``tests/property/test_sharded_differential.py``.

Per-shard solver churn bounds (``max_evictions``, ``max_migrations``,
``change_budget``) apply *per shard*, so cluster-wide churn scales with
the shard count; transactional apps keep ``min_instances`` per shard,
which is the intended sharded-front-end semantic.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from time import perf_counter
from typing import Mapping, Optional, Sequence

import numpy as np

from ..cluster.node import NodeSpec
from ..cluster.placement import Placement
from ..config import ControllerConfig
from ..errors import UnknownEntityError
from ..netmodel.context import NetworkContext
from ..perf.jobmodel import snapshot_jobs
from ..types import Mhz, Seconds
from ..utility.base import UtilityFunction
from ..workloads.jobs import Job, JobPhase
from ..workloads.transactional import TransactionalAppSpec
from .controller import (
    ControlDecision,
    ControlDiagnostics,
    CycleTelemetry,
    UtilityDrivenController,
)
from .demand import effective_capacity
from .hypothetical import HypotheticalAllocation
from .placement_solver import PlacementSolution
from .shard_arbiter import (
    ShardArbiter,
    ShardSplit,
    least_populated_shard,
    route_by_headroom,
)

#: Job phases that participate in shard routing (completed/cancelled jobs
#: are filtered by every shard's own snapshot anyway).
_ROUTABLE_PHASES = (JobPhase.PENDING, JobPhase.RUNNING, JobPhase.SUSPENDED)


def _weighted(values: Sequence[float], weights: Sequence[float]) -> float:
    total = float(sum(weights))
    if total <= 0.0:
        finite = [v for v in values if v == v]
        return sum(finite) / len(finite) if finite else 1.0
    return float(sum(v * w for v, w in zip(values, weights)) / total)


class ShardedController:
    """Hierarchical controller: sticky node shards + arbiter over monolithic cores.

    Drop-in :class:`~repro.experiments.runner.PlacementPolicy`; built by
    :func:`~repro.experiments.runner.default_policy_factory` whenever
    ``ControllerConfig.shards > 1``.

    Parameters mirror :class:`~repro.core.controller.UtilityDrivenController`;
    the shard count comes from ``config.shards``.  Every shard decides in
    the calling process, so ``config.shard_workers`` is not read.  The
    optional ``network`` context is handed to every sub-controller.
    """

    def __init__(
        self,
        app_specs: Sequence[TransactionalAppSpec],
        config: Optional[ControllerConfig] = None,
        tx_utility_shape: Optional[UtilityFunction] = None,
        network: Optional[NetworkContext] = None,
    ) -> None:
        self.config = config or ControllerConfig()
        self._app_ids = {spec.app_id for spec in app_specs}
        # The background optimality oracle (exact_oracle) compares one
        # whole-instance decision against one exact solve; a per-shard
        # gap would measure each shard's sub-instance instead, which is
        # not the same yardstick -- so shards run without it.
        shard_config = (
            replace(self.config, exact_oracle=None)
            if self.config.exact_oracle is not None
            else self.config
        )
        self._controllers = [
            UtilityDrivenController(
                app_specs, shard_config, tx_utility_shape, network=network
            )
            for _ in range(self.config.shards)
        ]
        self._arbiter = ShardArbiter()
        #: Sticky node -> shard assignment (never reshuffled; see module doc).
        self._node_shard: dict[str, int] = {}
        #: Sticky job -> shard routing for jobs not pinned by a node.
        self._routes: dict[str, int] = {}
        #: Observations buffered until decide() knows the shard capacities.
        self._pending_obs: list[tuple[str, float, Optional[float]]] = []
        #: Last cycle's cross-shard split / per-shard views (telemetry,
        #: tests); ``None`` before the first multi-shard cycle.
        self.last_split: Optional[ShardSplit] = None
        self.last_shard_nodes: Optional[list[list[NodeSpec]]] = None
        self.last_shard_decisions: Optional[list[ControlDecision]] = None

    def node_shard(self, node_id: str) -> Optional[int]:
        """Sticky shard index of ``node_id`` (``None`` if never seen)."""
        return self._node_shard.get(node_id)

    # ------------------------------------------------------------------
    # PlacementPolicy interface
    # ------------------------------------------------------------------
    def observe_app(
        self, app_id: str, *, load: float, service_cycles: Optional[float] = None
    ) -> None:
        """Buffer one monitoring sample.

        Samples are split across shards proportionally to shard capacity
        at the next ``decide()`` -- shard membership (and therefore the
        capacity fractions) is only known once the cycle's node list
        arrives.  With one shard the sample is replayed unscaled, so the
        sub-controller sees the exact monolithic observation sequence.
        """
        if app_id not in self._app_ids:
            raise UnknownEntityError(f"unmanaged app {app_id!r}")
        self._pending_obs.append(
            (app_id, float(load), None if service_cycles is None else float(service_cycles))
        )

    def decide(
        self,
        t: Seconds,
        *,
        nodes: Sequence[NodeSpec],
        jobs: Sequence[Job],
        current_placement: Placement,
        app_nodes: Mapping[str, frozenset[str]],
    ) -> ControlDecision:
        """One sharded control cycle (monolithic pass-through for 1 shard)."""
        if len(self._controllers) == 1:
            # Exact monolithic pipeline: unscaled observations, untouched
            # inputs, the sub-decision returned as-is (bit-identical to
            # UtilityDrivenController -- the shards=1 differential pins it).
            controller = self._controllers[0]
            observations, self._pending_obs = self._pending_obs, []
            for app_id, load, service_cycles in observations:
                controller.observe_app(
                    app_id, load=load, service_cycles=service_cycles
                )
            return controller.decide(
                t,
                nodes=nodes,
                jobs=jobs,
                current_placement=current_placement,
                app_nodes=app_nodes,
            )
        t0 = perf_counter()
        shard_nodes = self._partition_nodes(nodes)
        shard_jobs, split, split_ran = self._partition_jobs(t, jobs, shard_nodes)
        shard_placements, shard_app_nodes = self._partition_placement(
            current_placement, app_nodes
        )
        shares = _capacity_shares(shard_nodes)
        observations, self._pending_obs = self._pending_obs, []
        decisions: list[ControlDecision] = []
        for shard, controller in enumerate(self._controllers):
            share = shares[shard]
            for app_id, load, service_cycles in observations:
                controller.observe_app(
                    app_id,
                    load=load if share == 1.0 else load * share,
                    service_cycles=service_cycles,
                )
            decisions.append(
                controller.decide(
                    t,
                    nodes=shard_nodes[shard],
                    jobs=shard_jobs[shard],
                    current_placement=shard_placements[shard],
                    app_nodes=shard_app_nodes[shard],
                )
            )
        self.last_split = split
        self.last_shard_nodes = shard_nodes
        self.last_shard_decisions = decisions
        wall_ms = (perf_counter() - t0) * 1e3
        return _merge_decisions(
            t, decisions, split, split.iterations if split_ran else 0, wall_ms
        )

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _partition_nodes(self, nodes: Sequence[NodeSpec]) -> list[list[NodeSpec]]:
        shards = len(self._controllers)
        node_shard = self._node_shard
        for node in nodes:
            node_id = node.node_id
            if node_id not in node_shard:
                node_shard[node_id] = least_populated_shard(shards, node_shard)
        shard_nodes: list[list[NodeSpec]] = [[] for _ in range(shards)]
        for node in nodes:  # input order preserved within each shard
            shard_nodes[node_shard[node.node_id]].append(node)
        return shard_nodes

    def _partition_jobs(
        self, t: Seconds, jobs: Sequence[Job], shard_nodes: list[list[NodeSpec]]
    ) -> tuple[list[list[Job]], ShardSplit, bool]:
        """Partition jobs by sticky route, pricing shards only on arrivals.

        A job's shard never changes once set (its shard's solver only
        places it on that shard's nodes), so steady-state cycles reduce
        to one dict lookup per job.  The cross-shard split -- snapshots,
        equalizers, consumed-curve bisection -- is only recomputed when
        there are new jobs to route (or nothing is cached yet); cycles
        without arrivals reuse the last split, whose levels/headrooms are
        then telemetry-stale but route nothing.  Returns the partition,
        the (possibly reused) split, and whether it ran this cycle.
        """
        shards = len(self._controllers)
        node_shard = self._node_shard
        routes = self._routes
        shard_jobs: list[list[Job]] = [[] for _ in range(shards)]
        unrouted: list[Job] = []
        for job in jobs:
            shard = routes.get(job.job_id)
            if shard is None:
                # First sighting: a job already hosted on a known node
                # belongs to that node's shard; anything else waits for
                # headroom routing below.
                node_id = job.node_id
                if node_id is not None and node_id in node_shard:
                    shard = node_shard[node_id]
                    routes[job.job_id] = shard
                else:
                    unrouted.append(job)
                    continue
            shard_jobs[shard].append(job)
        routable = [
            job
            for job in unrouted
            if job.spec.submit_time <= t and job.phase in _ROUTABLE_PHASES
        ]
        split = self.last_split
        split_ran = bool(routable) or split is None
        if split_ran:
            budgets = [
                effective_capacity(
                    sum(n.cpu_capacity for n in ns), self.config.capacity_efficiency
                )
                for ns in shard_nodes
            ]
            populations = [snapshot_jobs(js, t) for js in shard_jobs]
            split = self._arbiter.split(budgets, populations)
        if routable:
            assignment = route_by_headroom(
                [job.spec.speed_cap_mhz for job in routable], split.headrooms
            )
            for job, shard in zip(routable, assignment):
                routes[job.job_id] = shard
                shard_jobs[shard].append(job)
        return shard_jobs, split, split_ran

    def _partition_placement(
        self,
        current_placement: Placement,
        app_nodes: Mapping[str, frozenset[str]],
    ) -> tuple[list[Placement], list[dict[str, frozenset[str]]]]:
        """Each shard's slice of the incumbent placement and app hosts."""
        shards = len(self._controllers)
        node_shard = self._node_shard
        shard_placements = [Placement() for _ in range(shards)]
        for entry in current_placement:
            shard = node_shard.get(entry.node_id)
            if shard is not None:
                shard_placements[shard].add(entry)
        shard_app_nodes = [
            {
                app_id: frozenset(n for n in hosted if node_shard.get(n) == shard)
                for app_id, hosted in app_nodes.items()
            }
            for shard in range(shards)
        ]
        return shard_placements, shard_app_nodes


def _capacity_shares(shard_nodes: list[list[NodeSpec]]) -> list[float]:
    """Each shard's fraction of the cycle's CPU capacity.

    A cluster-wide load sample reaches each shard scaled by its share
    (equal shares when no capacity is left).
    """
    capacities = [sum(n.cpu_capacity for n in ns) for ns in shard_nodes]
    total = sum(capacities)
    if total <= 0:
        return [1.0 / len(shard_nodes)] * len(shard_nodes)
    return [capacity / total for capacity in capacities]


# ----------------------------------------------------------------------
# Decision merging
# ----------------------------------------------------------------------
def _merge_decisions(
    t: Seconds,
    decisions: list[ControlDecision],
    split: ShardSplit,
    split_iterations: int,
    wall_ms: float,
) -> ControlDecision:
    """Fuse per-shard decisions into one cluster-level decision.

    Placements are disjoint by construction (each shard solves only over
    its own nodes and jobs), so the merge is a union; ``Placement.add``
    still raises on any double placement, making a routing bug loud
    rather than silent.
    """
    merged_placement = Placement()
    job_rates: dict[str, Mhz] = {}
    app_allocations: dict[str, Mhz] = {}
    deferred: list[str] = []
    unplaced: list[str] = []
    evicted: list[str] = []
    migrated: list[str] = []
    started: list[tuple[str, str]] = []
    stopped: list[tuple[str, str]] = []
    changes = 0
    for decision in decisions:
        for entry in decision.placement:
            merged_placement.add(entry)
        solution = decision.solution
        job_rates.update(solution.job_rates)
        for app_id, alloc in solution.app_allocations.items():
            app_allocations[app_id] = app_allocations.get(app_id, 0.0) + alloc
        deferred.extend(solution.deferred_jobs)
        unplaced.extend(solution.unplaced_jobs)
        evicted.extend(solution.evicted_jobs)
        migrated.extend(solution.migrated_jobs)
        started.extend(solution.started_instances)
        stopped.extend(solution.stopped_instances)
        changes += solution.changes
    merged_solution = PlacementSolution(
        placement=merged_placement,
        job_rates=job_rates,
        app_allocations=app_allocations,
        deferred_jobs=deferred,
        unplaced_jobs=unplaced,
        evicted_jobs=evicted,
        migrated_jobs=migrated,
        started_instances=started,
        stopped_instances=stopped,
        changes=changes,
    )

    populations = [d.diagnostics.population_size for d in decisions]
    capacities = [d.diagnostics.capacity for d in decisions]
    hypo = _merge_hypothetical([d.hypothetical for d in decisions], populations)
    telemetry = _merge_telemetry(decisions, wall_ms)
    app_targets: dict[str, Mhz] = {}
    for decision in decisions:
        for app_id, target in decision.diagnostics.app_targets.items():
            app_targets[app_id] = app_targets.get(app_id, 0.0) + target
    # Scalar fields aggregate the shards: sums for demands, targets and
    # population, capacity-weighted means for utilities.
    diagnostics = ControlDiagnostics(
        time=t,
        capacity=sum(capacities),
        tx_demand=sum(d.diagnostics.tx_demand for d in decisions),
        lr_demand=sum(d.diagnostics.lr_demand for d in decisions),
        tx_target=sum(d.diagnostics.tx_target for d in decisions),
        lr_target=sum(d.diagnostics.lr_target for d in decisions),
        tx_utility_predicted=_weighted(
            [d.diagnostics.tx_utility_predicted for d in decisions], capacities
        ),
        lr_utility_mean=hypo.mean_utility,
        lr_utility_level=hypo.utility_level,
        equalized=all(d.diagnostics.equalized for d in decisions),
        arbiter_iterations=split_iterations
        + sum(d.diagnostics.arbiter_iterations for d in decisions),
        population_size=sum(populations),
        app_targets=app_targets,
        telemetry=telemetry,
        shard_telemetry=tuple(d.diagnostics.telemetry for d in decisions),
        shard_imbalance=split.imbalance,
        milp_retries=sum(d.diagnostics.milp_retries for d in decisions),
    )
    actions = tuple(chain.from_iterable(d.actions for d in decisions))
    return ControlDecision(
        actions=actions,
        solution=merged_solution,
        hypothetical=hypo,
        diagnostics=diagnostics,
    )


def _merge_hypothetical(
    allocations: list[HypotheticalAllocation], populations: list[int]
) -> HypotheticalAllocation:
    """Cluster view of the shards' hypothetical equalizations.

    Rates/utilities concatenate in shard order (matching the per-shard
    job partitions, not the caller's job order); the level and mean are
    population-weighted means of the shard scalars -- the shards
    equalize independently, so a single cluster level does not exist;
    the spread is reported separately as ``shard_imbalance``.
    """
    rates = np.concatenate([a.rates for a in allocations])
    utilities = np.concatenate([a.utilities for a in allocations])
    weights = [float(p) for p in populations]
    return HypotheticalAllocation(
        utility_level=_weighted([a.utility_level for a in allocations], weights),
        rates=rates,
        utilities=utilities,
        mean_utility=_weighted([a.mean_utility for a in allocations], weights),
        consumed=float(sum(a.consumed for a in allocations)),
    )


def _merge_telemetry(decisions: list[ControlDecision], wall_ms: float) -> CycleTelemetry:
    """Cluster-level cycle telemetry.

    Per-stage times are *summed* across shards (aggregate work); the
    ``total`` is the observed wall time of the whole sharded decide,
    and ``overhead`` its excess over the summed shard totals
    (partitioning, routing, observation replay).  The cycle reports warm
    only when every shard ran warm.
    """
    stage_ms: dict[str, float] = {}
    eq_evals = eq_cache_hits = seed_hits = seed_misses = 0
    mode = "warm"
    for decision in decisions:
        telemetry = decision.diagnostics.telemetry
        for stage, ms in telemetry.stage_ms.items():
            stage_ms[stage] = stage_ms.get(stage, 0.0) + ms
        eq_evals += telemetry.eq_evals
        eq_cache_hits += telemetry.eq_cache_hits
        seed_hits += telemetry.seed_hits
        seed_misses += telemetry.seed_misses
        if telemetry.mode != "warm":
            mode = "cold"
    shard_total = stage_ms.get("total", 0.0)
    stage_ms["overhead"] = wall_ms - shard_total
    stage_ms["total"] = wall_ms
    return CycleTelemetry(
        mode=mode,
        stage_ms=stage_ms,
        eq_evals=eq_evals,
        eq_cache_hits=eq_cache_hits,
        seed_hits=seed_hits,
        seed_misses=seed_misses,
    )
