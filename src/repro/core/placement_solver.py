"""Node-level placement solver.

Turns the arbiter's divisible-CPU decision into an *integral* placement:
which job VMs run on which nodes, where web-application instances live,
and how much CPU each VM is granted -- subject to per-node CPU and memory
capacity.  The solver is **incremental** in the spirit of the dynamic
application placement algorithms the paper's framework builds on
(Kimbrel et al.): it starts from the incumbent placement and bounds the
number of disruptive changes (starts/suspends/resumes/migrations) per
cycle, because each change has a real cost on the running system.

Phases, in order:

1. **Retention** -- running jobs stay put; their memory stays reserved.
2. **Per-node CPU water-fill** -- retained jobs receive CPU up to their
   equalized targets, sharing fairly when a node is tight.
3. **Admission** -- waiting jobs (pending or suspended), most urgent
   first, are placed on the node that can come closest to their target.
4. **Eviction** -- a waiting job clearly more urgent than the least
   urgent running job (per :class:`~repro.core.job_scheduler.EvictionPolicy`)
   may displace it (suspend + start), if the change budget allows.
5. **Migration rebalance** -- running jobs starved far below target are
   moved to nodes that can serve them fully.
6. **Web placement** -- each application's arbiter share is spread over
   its instances (existing first, then new instances on the emptiest
   nodes); instances left with no CPU are stopped, respecting
   ``min_instances``.

All iteration orders are sorted, so identical inputs yield identical
placements (regression tests rely on this).

Scaling
-------
The residual node capacities live in numpy arrays (:class:`_ClusterState`)
and the per-request node-selection queries (:meth:`PlacementSolver._best_node_for`,
:meth:`PlacementSolver._node_with_room`, the web-candidate ordering) are
vectorized reductions over them instead of per-request Python ``sorted``
scans.  The reductions replicate the documented lexicographic tie-break
keys *exactly* -- a maintained heap could not serve the two-dimensional
(CPU, memory, id) keys without re-scanning -- so the optimized solver is
bit-for-bit identical to the seed implementation (enforced by
``tests/property/test_solver_equivalence.py``) while a 2000-job /
200-node cycle costs milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from ..cluster.node import NodeSpec
from ..cluster.placement import Placement, PlacementEntry
from ..config import SolverConfig
from ..errors import ConfigurationError
from ..types import Megabytes, Mhz, WorkloadKind
from .job_scheduler import (
    AppRequest,
    EvictionPolicy,
    JobRequest,
    order_by_urgency,
    split_runnable,
)

#: Allocation slivers below this many MHz are treated as zero.
_MHZ_EPS = 1e-6

#: Sort keys for the solver's deterministic orderings: identical orders to
#: the former lambdas, without the per-element Python-frame cost.
_by_app_id = attrgetter("app_id")
_by_job_id = attrgetter("job_id")
_by_vm_id = attrgetter("vm_id")

#: Population size beyond which water-fill orders targets with numpy's
#: stable argsort (identical order to the Python sort, smaller constant)
#: and the boost phase gathers headroom into arrays.  Below it plain
#: Python is faster for the solver's per-node fills (a handful of jobs).
_WATER_FILL_VECTOR_MIN = 128


class _ClusterState:
    """Residual per-node capacity during solving, columnar.

    Node order is fixed at construction: ids sorted ascending.  CPU and
    memory residuals are float64 arrays so the selection queries reduce
    over them without materializing Python tuples; scalar reads/writes go
    through plain indexing (IEEE-identical to the seed's per-object
    float arithmetic).
    """

    __slots__ = ("ids", "pos", "cpu", "mem")

    def __init__(self, nodes: Sequence[NodeSpec]) -> None:
        ordered = sorted(nodes, key=lambda n: n.node_id)
        self.ids: list[str] = [n.node_id for n in ordered]
        self.pos: dict[str, int] = {nid: i for i, nid in enumerate(self.ids)}
        self.cpu = np.array([n.cpu_capacity for n in ordered], dtype=float)
        self.mem = np.array([n.memory_mb for n in ordered], dtype=float)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.pos


@dataclass
class PlacementSolution:
    """The solver's output for one control cycle."""

    placement: Placement
    job_rates: dict[str, Mhz]
    app_allocations: dict[str, Mhz]
    deferred_jobs: list[str] = field(default_factory=list)
    unplaced_jobs: list[str] = field(default_factory=list)
    evicted_jobs: list[str] = field(default_factory=list)
    migrated_jobs: list[str] = field(default_factory=list)
    started_instances: list[tuple[str, str]] = field(default_factory=list)
    stopped_instances: list[tuple[str, str]] = field(default_factory=list)
    changes: int = 0
    #: Solves the MILP backend re-ran with presolve off (0 for greedy).
    milp_retries: int = 0

    @property
    def satisfied_lr_demand(self) -> Mhz:
        """Total CPU granted to jobs (Figure 2's satisfied LR demand)."""
        return sum(self.job_rates.values())

    @property
    def satisfied_tx_demand(self) -> Mhz:
        """Total CPU granted to web apps (Figure 2's satisfied TX demand)."""
        return sum(self.app_allocations.values())


def water_fill(targets: Sequence[Mhz], capacity: Mhz) -> list[Mhz]:
    """Share ``capacity`` among ``targets`` max-min fairly, capped at targets.

    Every target is served up to the common water level; targets below the
    level are fully satisfied.  ``sum(result) == min(capacity, sum(targets))``
    up to float precision.

    The O(n log n) ordering step runs through numpy's stable argsort for
    populations of ``_WATER_FILL_VECTOR_MIN`` or more (identical order:
    both sorts are stable over the same float comparisons).  The serving
    recurrence itself stays scalar because its sequential subtractions
    define the exact float semantics the solver's bit-for-bit contract
    pins -- a cumsum formulation would differ in the last ulp.
    """
    if capacity < 0:
        raise ConfigurationError("capacity must be non-negative")
    n = len(targets)
    if n == 0:
        return []
    total = sum(targets)
    if total <= capacity:
        return list(targets)
    # Raise the water level cap by cap.
    if n >= _WATER_FILL_VECTOR_MIN:
        order = np.argsort(np.asarray(targets, dtype=float), kind="stable").tolist()
    else:
        order = sorted(range(n), key=lambda i: targets[i])
    alloc = [0.0] * n
    remaining = capacity
    active = n
    for pos, i in enumerate(order):
        share = remaining / active
        if targets[i] <= share:
            alloc[i] = targets[i]
            remaining -= targets[i]
        else:
            # Everyone left (equal or larger targets) gets the even share.
            for j in order[pos:]:
                alloc[j] = remaining / active
            remaining = 0.0
            break
        active -= 1
    return alloc


class PlacementSolver:
    """Stateless solver: call :meth:`solve` once per control cycle."""

    def __init__(self, config: SolverConfig | None = None) -> None:
        self.config = config or SolverConfig()
        self._eviction = EvictionPolicy(
            self.config.eviction_margin, self.config.protect_completion
        )

    # ------------------------------------------------------------------
    def solve(
        self,
        nodes: Sequence[NodeSpec],
        apps: Sequence[AppRequest],
        jobs: Sequence[JobRequest],
        lr_target: Optional[Mhz] = None,
    ) -> PlacementSolution:
        """Compute a feasible placement for one cycle.

        ``nodes`` must be the *active* nodes; requests referring to other
        nodes are treated as displaced (their VMs need re-placement).

        ``lr_target`` is the arbiter's aggregate long-running share.  When
        memory slots prevent placing every job, the share intended for the
        waiting jobs is *redistributed* to the placed ones (up to their
        speed caps) instead of idling -- the placed jobs run faster now
        and the waiting jobs take over freed slots later, which is how a
        work-conserving hypervisor realizes the divisible-CPU decision.
        ``None`` disables redistribution (each job is capped at its own
        target; used by baselines that set explicit per-job rates).
        """
        state = _ClusterState(nodes)
        solution = PlacementSolution(
            placement=Placement(), job_rates={}, app_allocations={}
        )
        budget = [self.config.change_budget]  # boxed; None = unlimited

        # Memory of already-running web instances is committed before any
        # job decisions, so admissions cannot squat on it.
        self._reserve_web_memory(apps, state)

        running, waiting = self._partition_jobs(jobs, state)
        self._retain_and_waterfill(running, state, solution)
        waiting = order_by_urgency(waiting)
        runnable, deferred = split_runnable(waiting, self.config.min_job_rate)
        solution.deferred_jobs = [r.job_id for r in deferred]

        leftover = self._admit(runnable, state, solution, budget)
        leftover = self._evict_and_admit(leftover, running, state, solution, budget)
        solution.unplaced_jobs = [r.job_id for r in leftover]
        self._rebalance(running, state, solution, budget)
        self._boost_jobs(jobs, state, solution, lr_target)
        self._place_web(apps, state, solution, budget)
        return solution

    # ------------------------------------------------------------------
    # Phase helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _reserve_web_memory(
        apps: Sequence[AppRequest], state: _ClusterState
    ) -> None:
        """Commit the memory of instances that enter the cycle running."""
        for app in sorted(apps, key=_by_app_id):
            for node_id in sorted(app.current_nodes):
                if node_id in state:
                    i = state.pos[node_id]
                    state.mem[i] -= app.instance_memory_mb
                    if state.mem[i] < -1e-6:
                        raise ConfigurationError(
                            f"node {node_id}: running web instances exceed memory"
                        )

    @staticmethod
    def _partition_jobs(
        jobs: Sequence[JobRequest], state: _ClusterState
    ) -> tuple[list[JobRequest], list[JobRequest]]:
        """Split into (retained running, waiting) requests.

        Jobs whose recorded host is not an active node are displaced and
        join the waiting set.
        """
        running: list[JobRequest] = []
        waiting: list[JobRequest] = []
        for request in sorted(jobs, key=_by_job_id):
            if request.current_node is not None and request.current_node in state:
                running.append(request)
            else:
                waiting.append(request)
        return running, waiting

    def _retain_and_waterfill(
        self,
        running: list[JobRequest],
        state: _ClusterState,
        solution: PlacementSolution,
    ) -> None:
        """Phases 1-2: keep running jobs in place, grant CPU by water-fill."""
        by_node: dict[str, list[JobRequest]] = {}
        for request in running:
            assert request.current_node is not None
            by_node.setdefault(request.current_node, []).append(request)
        for node_id in sorted(by_node):
            i = state.pos[node_id]
            members = sorted(by_node[node_id], key=_by_job_id)
            targets = [min(r.target_rate, r.speed_cap) for r in members]
            grants = water_fill(targets, float(state.cpu[i]))
            for request, grant in zip(members, grants):
                state.mem[i] -= request.memory_mb
                state.cpu[i] -= grant
                self._place_job(solution, request, node_id, grant)
        # Memory feasibility is inherited from the previous (validated)
        # placement; a defensive check still guards solver-input bugs.
        violations = np.flatnonzero(state.mem < -1e-6)
        if violations.size:
            bad = int(violations[0])  # first in id order, like the seed's scan
            raise ConfigurationError(
                f"node {state.ids[bad]}: retained jobs exceed memory "
                f"({state.mem[bad]:.1f} MB)"
            )

    def _admit(
        self,
        runnable: list[JobRequest],
        state: _ClusterState,
        solution: PlacementSolution,
        budget: list[Optional[int]],
    ) -> list[JobRequest]:
        """Phase 3: place waiting jobs, most urgent first.  Returns leftovers."""
        leftover: list[JobRequest] = []
        # While no admission succeeds the node state is frozen, so one
        # reduction over it bounds every later query: a request needing
        # more memory than any minimally-fast node offers cannot fit.
        # Admission runs over *hundreds* of requests that mostly fail on
        # memory slots; this makes each such failure O(1) instead of a
        # full node scan, with exactly the same outcome.
        min_rate = self.config.min_job_rate
        max_fit_mem: Optional[float] = None  # None = stale, recompute
        for request in runnable:
            if not self._budget_allows(budget, 1):
                leftover.append(request)
                continue
            if max_fit_mem is None:
                eligible = np.where(state.cpu >= min_rate, state.mem, -np.inf)
                max_fit_mem = float(eligible.max()) if eligible.size else -np.inf
            if (
                request.memory_mb > max_fit_mem
                or min(request.target_rate, request.speed_cap) < min_rate
            ):
                # _best_node_for would scan and return None: no node has
                # both the memory and a grant reaching min_job_rate.
                leftover.append(request)
                continue
            node_id = self._best_node_for(request, state)
            if node_id is None:
                leftover.append(request)
                continue
            max_fit_mem = None  # placement below mutates the state
            i = state.pos[node_id]
            grant = min(request.target_rate, request.speed_cap, float(state.cpu[i]))
            state.mem[i] -= request.memory_mb
            state.cpu[i] -= grant
            self._place_job(solution, request, node_id, grant)
            self._spend(budget, 1)
            solution.changes += 1
        return leftover

    def _evict_and_admit(
        self,
        leftover: list[JobRequest],
        running: list[JobRequest],
        state: _ClusterState,
        solution: PlacementSolution,
        budget: list[Optional[int]],
    ) -> list[JobRequest]:
        """Phase 4: displace clearly less urgent running jobs."""
        still_unplaced: list[JobRequest] = []
        if not leftover:
            return still_unplaced
        # Only jobs retained this cycle (not freshly admitted) are victims.
        # The index is built once and maintained across requests (the
        # seed rebuilt the candidate list per request and scanned it in
        # full: O(requests x running)).
        victims = self._eviction.victim_index(
            [r for r in running if r.job_id in solution.job_rates]
        )
        evictions = 0
        for request in leftover:
            if evictions >= self.config.max_evictions:
                still_unplaced.append(request)
                continue
            victim = victims.pick(request)
            if victim is None or not self._budget_allows(budget, 2):
                still_unplaced.append(request)
                continue
            victim_node = victim.current_node
            assert victim_node is not None
            i = state.pos[victim_node]
            # Undo the victim's placement.
            state.mem[i] += victim.memory_mb
            state.cpu[i] += solution.job_rates.pop(victim.job_id)
            solution.placement.remove(victim.vm_id)
            solution.evicted_jobs.append(victim.job_id)
            victims.discard(victim)
            # Place the more urgent job in the freed slot.
            grant = min(request.target_rate, request.speed_cap, float(state.cpu[i]))
            state.mem[i] -= request.memory_mb
            state.cpu[i] -= grant
            self._place_job(solution, request, victim_node, grant)
            self._spend(budget, 2)
            solution.changes += 2
            evictions += 1
        return still_unplaced

    def _rebalance(
        self,
        running: list[JobRequest],
        state: _ClusterState,
        solution: PlacementSolution,
        budget: list[Optional[int]],
    ) -> None:
        """Phase 5: migrate starved running jobs to roomier nodes."""
        if self.config.max_migrations == 0:
            return
        starved: list[tuple[float, JobRequest]] = []
        for request in running:
            granted = solution.job_rates.get(request.job_id)
            if granted is None:  # evicted above
                continue
            target = min(request.target_rate, request.speed_cap)
            if target > 0 and granted < target * self.config.migration_deficit:
                starved.append((target - granted, request))
        starved.sort(key=lambda pair: (-pair[0], pair[1].job_id))
        migrated = 0
        for deficit, request in starved:
            if migrated >= self.config.max_migrations:
                break
            if not self._budget_allows(budget, 1):
                break
            target = min(request.target_rate, request.speed_cap)
            dest = self._node_with_room(request, state, need_cpu=target)
            if dest is None or dest == request.current_node:
                continue
            src = state.pos[request.current_node]  # type: ignore[arg-type]
            state.mem[src] += request.memory_mb
            state.cpu[src] += solution.job_rates.pop(request.job_id)
            solution.placement.remove(request.vm_id)
            i = state.pos[dest]
            grant = min(target, float(state.cpu[i]))
            state.mem[i] -= request.memory_mb
            state.cpu[i] -= grant
            self._place_job(solution, request, dest, grant)
            solution.migrated_jobs.append(request.job_id)
            self._spend(budget, 1)
            solution.changes += 1
            migrated += 1

    def _boost_jobs(
        self,
        jobs: Sequence[JobRequest],
        state: _ClusterState,
        solution: PlacementSolution,
        lr_target: Optional[Mhz],
    ) -> None:
        """Redistribute the unplaced long-running share to placed jobs.

        Raises placed jobs' grants toward their speed caps (water-filling
        the headroom per node) until either the aggregate ``lr_target`` is
        consumed or every placed job is capped.  Free: pure CPU-share
        adjustment, no placement change.
        """
        if lr_target is None:
            return
        room = lr_target - sum(solution.job_rates.values())
        if room <= _MHZ_EPS:
            return
        caps = {r.vm_id: r.speed_cap for r in jobs}
        job_ids = {r.vm_id: r.job_id for r in jobs}
        for i, node_id in enumerate(state.ids):
            if room <= _MHZ_EPS:
                break
            entries = sorted(
                (
                    e
                    for e in solution.placement.entries_on(node_id)
                    if e.vm_id in caps
                ),
                key=_by_vm_id,
            )
            if not entries:
                continue
            if len(entries) >= _WATER_FILL_VECTOR_MIN:
                cap_arr = np.fromiter(
                    (caps[e.vm_id] for e in entries), dtype=float, count=len(entries)
                )
                cpu_arr = np.fromiter(
                    (e.cpu_mhz for e in entries), dtype=float, count=len(entries)
                )
                headroom: Sequence[float] = np.maximum(cap_arr - cpu_arr, 0.0)
            else:
                headroom = [max(caps[e.vm_id] - e.cpu_mhz, 0.0) for e in entries]
            # Residuals can carry -1e-14-scale float dust after repeated
            # subtraction; clamp before sharing.
            budget_here = max(min(float(state.cpu[i]), room), 0.0)
            extra = water_fill(headroom, budget_here)
            for entry, boost in zip(entries, extra):
                if boost <= _MHZ_EPS:
                    continue
                new_grant = entry.cpu_mhz + boost
                solution.placement.update_cpu(entry.vm_id, new_grant)
                solution.job_rates[job_ids[entry.vm_id]] = new_grant
                state.cpu[i] -= boost
                room -= boost

    def _place_web(
        self,
        apps: Sequence[AppRequest],
        state: _ClusterState,
        solution: PlacementSolution,
        budget: list[Optional[int]],
    ) -> None:
        """Phase 6: distribute app targets over instances; start/stop instances."""
        for app in sorted(apps, key=_by_app_id):
            remaining = app.target_allocation
            instance_nodes = sorted(n for n in app.current_nodes if n in state)
            grants: dict[str, Mhz] = {}

            # Fair first pass over existing instances, greedy second pass.
            if instance_nodes:
                fair = remaining / len(instance_nodes)
                for node_id in instance_nodes:
                    i = state.pos[node_id]
                    give = min(float(state.cpu[i]), fair, remaining)
                    grants[node_id] = give
                    state.cpu[i] -= give
                    remaining -= give
                for node_id in sorted(
                    instance_nodes, key=lambda n: -float(state.cpu[state.pos[n]])
                ):
                    if remaining <= _MHZ_EPS:
                        break
                    i = state.pos[node_id]
                    give = min(float(state.cpu[i]), remaining)
                    grants[node_id] += give
                    state.cpu[i] -= give
                    remaining -= give

            # Start new instances while a meaningful share is unplaced.
            # Candidate order (most free CPU first, ids break ties) comes
            # from one stable argsort instead of a keyed Python sort.
            threshold = app.target_allocation * self.config.web_start_threshold
            count = len(instance_nodes)
            order = np.argsort(-state.cpu, kind="stable")
            candidates = [
                state.ids[j] for j in order if state.ids[j] not in app.current_nodes
            ]
            if app.preferred_nodes:
                # Latency-aware ranking: ranked nodes first (lower rank =
                # closer to the users), free-CPU order within a rank and
                # among the unranked tail (stable sort).
                rank = dict(app.preferred_nodes)
                unranked = len(rank)
                candidates.sort(key=lambda nid: rank.get(nid, unranked))
            for node_id in candidates:
                if remaining <= max(threshold, _MHZ_EPS) or count >= app.max_instances:
                    break
                i = state.pos[node_id]
                if state.mem[i] < app.instance_memory_mb or state.cpu[i] <= _MHZ_EPS:
                    continue
                if not self._budget_allows(budget, 1):
                    break
                give = min(float(state.cpu[i]), remaining)
                state.mem[i] -= app.instance_memory_mb
                state.cpu[i] -= give
                grants[node_id] = give
                solution.started_instances.append((app.app_id, node_id))
                self._spend(budget, 1)
                solution.changes += 1
                count += 1
                remaining -= give

            # Stop idle instances (never below min_instances); their memory
            # returns to the pool for apps processed later this cycle.
            if self.config.stop_idle_instances:
                for node_id in sorted(instance_nodes):
                    if count <= app.min_instances:
                        break
                    if grants.get(node_id, 0.0) <= _MHZ_EPS:
                        if not self._budget_allows(budget, 1):
                            break
                        grants.pop(node_id, None)
                        state.mem[state.pos[node_id]] += app.instance_memory_mb
                        solution.stopped_instances.append((app.app_id, node_id))
                        self._spend(budget, 1)
                        solution.changes += 1
                        count -= 1
                        continue

            # Record placement entries (memory was reserved up front for
            # retained instances and at start time for new ones).
            total = 0.0
            for node_id, grant in sorted(grants.items()):
                solution.placement.add(
                    PlacementEntry(
                        vm_id=app.instance_vm_id(node_id),
                        node_id=node_id,
                        cpu_mhz=grant,
                        memory_mb=app.instance_memory_mb,
                        kind=WorkloadKind.TRANSACTIONAL,
                    )
                )
                total += grant
            solution.app_allocations[app.app_id] = total

    # ------------------------------------------------------------------
    # Small utilities
    # ------------------------------------------------------------------
    @staticmethod
    def _place_job(
        solution: PlacementSolution, request: JobRequest, node_id: str, grant: Mhz
    ) -> None:
        # Trusted construction: the grant is clamped non-negative here and
        # the footprint was validated on the request.
        grant = float(max(grant, 0.0))
        solution.placement.add(
            PlacementEntry.trusted(
                request.vm_id,
                node_id,
                grant,
                request.memory_mb,
                WorkloadKind.LONG_RUNNING,
            )
        )
        solution.job_rates[request.job_id] = grant

    def _best_node_for(
        self, request: JobRequest, state: _ClusterState
    ) -> Optional[str]:
        """Node giving the job the most CPU (ties: less spare memory, id).

        Vectorized lexicographic minimum of ``(-grant, mem, node_id)``:
        maximize the achievable grant, then prefer the tightest memory
        fit, then the smallest id (node order is id-sorted, so "first
        index" is the id tie-break).  Identical to the seed's scan.
        """
        want = min(request.target_rate, request.speed_cap)
        grant = np.minimum(state.cpu, want)
        ok = (state.mem >= request.memory_mb) & (grant >= self.config.min_job_rate)
        if not ok.any():
            return None
        masked = np.where(ok, grant, -np.inf)
        best = masked.max()
        mem_among_best = np.where(masked == best, state.mem, np.inf)
        return state.ids[int(np.argmin(mem_among_best))]

    @staticmethod
    def _node_with_room(
        request: JobRequest, state: _ClusterState, need_cpu: Mhz
    ) -> Optional[str]:
        """A node that can host the job at its full target, or ``None``.

        Vectorized first-match of the seed's ``(-cpu, id)`` scan order:
        the first index attaining the maximal free CPU among feasible
        nodes (``argmax`` returns the earliest, i.e. smallest id).
        """
        ok = (state.mem >= request.memory_mb) & (state.cpu >= need_cpu)
        if not ok.any():
            return None
        masked = np.where(ok, state.cpu, -np.inf)
        return state.ids[int(np.argmax(masked))]

    @staticmethod
    def _budget_allows(budget: list[Optional[int]], cost: int) -> bool:
        return budget[0] is None or budget[0] >= cost

    @staticmethod
    def _spend(budget: list[Optional[int]], cost: int) -> None:
        if budget[0] is not None:
            budget[0] -= cost
