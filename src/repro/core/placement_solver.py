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
Each placed VM costs one cheap step: the residual node capacities are
plain float lists (:class:`_ClusterState`), read and written per VM with
the seed's float arithmetic, and each entry goes into the placement with
one :meth:`~repro.cluster.placement.Placement.place` call.  The
per-request node-selection queries (:meth:`PlacementSolver._best_node_for`,
:meth:`PlacementSolver._node_with_room`, the new-instance candidate
order) are vectorized reductions over numpy copies of the residuals,
which admission and rebalance keep in step with their own changes,
instead of per-request Python ``sorted`` scans.  The reductions
replicate the documented lexicographic tie-break keys *exactly* -- a
maintained heap could not serve the two-dimensional (CPU, memory, id)
keys without re-scanning -- so the optimized solver is bit-for-bit
identical to the seed implementation, entry insertion order included
(enforced by ``tests/property/test_solver_equivalence.py``), while a
2000-job / 200-node cycle costs milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from ..cluster.node import NodeSpec
from ..cluster.placement import Placement, instance_vm_id
from ..config import SolverConfig
from ..errors import ConfigurationError
from ..types import Mhz, WorkloadKind
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
_by_node_id = attrgetter("node_id")
_by_vm_id = attrgetter("vm_id")

#: Population size beyond which water-fill orders targets with numpy's
#: stable argsort (identical order to the Python sort, smaller constant)
#: and the boost phase gathers headroom into arrays.  Below it plain
#: Python is faster for the solver's per-node fills (a handful of jobs).
_WATER_FILL_VECTOR_MIN = 128


class _ClusterState:
    """Residual per-node capacity during solving.

    Node order is fixed at construction: ids sorted ascending.  CPU and
    memory residuals are plain float lists, read and written once or
    twice per placed VM (the seed's per-object float arithmetic, at a
    fraction of a numpy scalar access's cost).  The vectorized node
    queries work on a numpy copy (:meth:`arrays`) that their phase keeps
    in step with each change it makes.
    """

    __slots__ = ("ids", "pos", "cpu", "mem")

    def __init__(self, nodes: Sequence[NodeSpec]) -> None:
        ordered = sorted(nodes, key=_by_node_id)
        self.ids: list[str] = [n.node_id for n in ordered]
        self.pos: dict[str, int] = {nid: i for i, nid in enumerate(self.ids)}
        self.cpu: list[float] = [float(n.cpu_capacity) for n in ordered]
        self.mem: list[float] = [float(n.memory_mb) for n in ordered]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Float64 copies of the CPU and memory residuals."""
        return np.array(self.cpu, dtype=float), np.array(self.mem, dtype=float)


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

        # Each app with its instances on active nodes, both in id order.
        app_instances = [
            (app, sorted(n for n in app.current_nodes if n in state.pos))
            for app in sorted(apps, key=_by_app_id)
        ]
        # Memory of already-running web instances is committed before any
        # job decisions, so admissions cannot squat on it.
        self._reserve_web_memory(app_instances, state)

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
        self._place_web(app_instances, state, solution, budget)
        return solution

    # ------------------------------------------------------------------
    # Phase helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _reserve_web_memory(
        app_instances: list[tuple[AppRequest, list[str]]], state: _ClusterState
    ) -> None:
        """Commit the memory of instances that enter the cycle running."""
        mem, pos = state.mem, state.pos
        for app, instance_nodes in app_instances:
            for node_id in instance_nodes:
                i = pos[node_id]
                mem[i] -= app.instance_memory_mb
                if mem[i] < -1e-6:
                    raise ConfigurationError(
                        f"node {node_id}: running web instances exceed memory"
                    )

    @staticmethod
    def _partition_jobs(
        jobs: Sequence[JobRequest], state: _ClusterState
    ) -> tuple[list[JobRequest], list[JobRequest]]:
        """Split into (retained running, waiting) requests, each in job-id order.

        Jobs whose recorded host is not an active node are displaced and
        join the waiting set.
        """
        running: list[JobRequest] = []
        waiting: list[JobRequest] = []
        pos = state.pos
        for request in sorted(jobs, key=_by_job_id):
            if request.current_node is not None and request.current_node in pos:
                running.append(request)
            else:
                waiting.append(request)
        return running, waiting

    @staticmethod
    def _retain_and_waterfill(
        running: list[JobRequest],
        state: _ClusterState,
        solution: PlacementSolution,
    ) -> None:
        """Phases 1-2: keep running jobs in place, grant CPU by water-fill."""
        by_node: dict[str, list[JobRequest]] = {}
        for request in running:
            by_node.setdefault(request.current_node, []).append(request)
        cpu, mem, pos = state.cpu, state.mem, state.pos
        place = solution.placement.place
        job_rates = solution.job_rates
        long_running = WorkloadKind.LONG_RUNNING
        for node_id in sorted(by_node):
            i = pos[node_id]
            # ``running`` is in job-id order, so each node's members are.
            members = by_node[node_id]
            grants = [min(r.target_rate, r.speed_cap) for r in members]
            node_cpu = cpu[i]
            if not sum(grants) <= node_cpu:  # water_fill returns fitting targets
                grants = water_fill(grants, node_cpu)
            node_mem = mem[i]
            for request, grant in zip(members, grants):
                node_mem -= request.memory_mb
                node_cpu -= grant
                if grant < 0.0:  # as _place_job clamps
                    grant = 0.0
                place(request.vm_id, node_id, grant, request.memory_mb, long_running)
                job_rates[request.job_id] = grant
            cpu[i] = node_cpu
            mem[i] = node_mem
            # Memory feasibility is inherited from the previous (validated)
            # placement; a defensive check still guards solver-input bugs.
            # Web reservations raised already, so this node, the first in
            # id order to fall short, is the one a scan of all would name.
            if node_mem < -1e-6:
                raise ConfigurationError(
                    f"node {node_id}: retained jobs exceed memory "
                    f"({node_mem:.1f} MB)"
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
        if not runnable:
            return leftover
        # While no admission succeeds the node state is frozen, so one
        # reduction over it bounds every later query: a request needing
        # more memory than any minimally-fast node offers cannot fit.
        # Admission runs over *hundreds* of requests that mostly fail on
        # memory slots; this makes each such failure O(1) instead of a
        # full node scan, with exactly the same outcome.
        min_rate = self.config.min_job_rate
        cpu, mem = state.cpu, state.mem
        cpu_arr, mem_arr = state.arrays()
        max_fit_mem: Optional[float] = None  # None = stale, recompute
        for request in runnable:
            if not self._budget_allows(budget, 1):
                leftover.append(request)
                continue
            if max_fit_mem is None:
                eligible = np.where(cpu_arr >= min_rate, mem_arr, -np.inf)
                max_fit_mem = float(eligible.max()) if eligible.size else -np.inf
            if (
                request.memory_mb > max_fit_mem
                or min(request.target_rate, request.speed_cap) < min_rate
            ):
                # _best_node_for would scan and return None: no node has
                # both the memory and a grant reaching min_job_rate.
                leftover.append(request)
                continue
            i = self._best_node_for(request, cpu_arr, mem_arr)
            if i is None:
                leftover.append(request)
                continue
            max_fit_mem = None  # placement below mutates the state
            grant = min(request.target_rate, request.speed_cap, cpu[i])
            mem[i] -= request.memory_mb
            cpu[i] -= grant
            cpu_arr[i] = cpu[i]
            mem_arr[i] = mem[i]
            self._place_job(solution, request, state.ids[i], grant)
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
        cpu, mem = state.cpu, state.mem
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
            mem[i] += victim.memory_mb
            cpu[i] += solution.job_rates.pop(victim.job_id)
            solution.placement.remove(victim.vm_id)
            solution.evicted_jobs.append(victim.job_id)
            victims.discard(victim)
            # Place the more urgent job in the freed slot.
            grant = min(request.target_rate, request.speed_cap, cpu[i])
            mem[i] -= request.memory_mb
            cpu[i] -= grant
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
        job_rates = solution.job_rates
        deficit_ratio = self.config.migration_deficit
        for request in running:
            granted = job_rates.get(request.job_id)
            if granted is None:  # evicted above
                continue
            target = min(request.target_rate, request.speed_cap)
            if target > 0 and granted < target * deficit_ratio:
                starved.append((target - granted, request))
        if not starved:
            return
        starved.sort(key=lambda pair: (-pair[0], pair[1].job_id))
        cpu, mem = state.cpu, state.mem
        cpu_arr, mem_arr = state.arrays()
        migrated = 0
        for deficit, request in starved:
            if migrated >= self.config.max_migrations:
                break
            if not self._budget_allows(budget, 1):
                break
            target = min(request.target_rate, request.speed_cap)
            dest = self._node_with_room(request, cpu_arr, mem_arr, need_cpu=target)
            if dest is None or state.ids[dest] == request.current_node:
                continue
            src = state.pos[request.current_node]  # type: ignore[index]
            mem[src] += request.memory_mb
            cpu[src] += job_rates.pop(request.job_id)
            solution.placement.remove(request.vm_id)
            grant = min(target, cpu[dest])
            mem[dest] -= request.memory_mb
            cpu[dest] -= grant
            for i in (src, dest):
                cpu_arr[i] = cpu[i]
                mem_arr[i] = mem[i]
            self._place_job(solution, request, state.ids[dest], grant)
            solution.migrated_jobs.append(request.job_id)
            self._spend(budget, 1)
            solution.changes += 1
            migrated += 1

    @staticmethod
    def _boost_jobs(
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
        cpu = state.cpu
        placement = solution.placement
        for i, node_id in enumerate(state.ids):
            if room <= _MHZ_EPS:
                break
            entries = sorted(
                (e for e in placement.entries_on(node_id) if e.vm_id in caps),
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
                # Back to Python floats: the residuals stay plain floats.
                headroom = np.maximum(cap_arr - cpu_arr, 0.0).tolist()
            else:
                headroom = [max(caps[e.vm_id] - e.cpu_mhz, 0.0) for e in entries]
            # Residuals can carry -1e-14-scale float dust after repeated
            # subtraction; clamp before sharing.
            budget_here = max(min(cpu[i], room), 0.0)
            extra = water_fill(headroom, budget_here)
            for entry, boost in zip(entries, extra):
                if boost <= _MHZ_EPS:
                    continue
                new_grant = entry.cpu_mhz + boost
                placement.update_cpu(entry.vm_id, new_grant)
                solution.job_rates[job_ids[entry.vm_id]] = new_grant
                cpu[i] -= boost
                room -= boost

    def _place_web(
        self,
        app_instances: list[tuple[AppRequest, list[str]]],
        state: _ClusterState,
        solution: PlacementSolution,
        budget: list[Optional[int]],
    ) -> None:
        """Phase 6: distribute app targets over instances; start/stop instances."""
        cpu, mem, pos = state.cpu, state.mem, state.pos
        place = solution.placement.place
        for app, instance_nodes in app_instances:
            remaining = app.target_allocation
            grants: dict[str, Mhz] = {}

            # Fair first pass over existing instances, greedy second pass
            # (most free CPU first) while a share is left.
            if instance_nodes:
                fair = remaining / len(instance_nodes)
                for node_id in instance_nodes:
                    i = pos[node_id]
                    give = min(cpu[i], fair, remaining)
                    grants[node_id] = give
                    cpu[i] -= give
                    remaining -= give
                if not remaining <= _MHZ_EPS:
                    for node_id in sorted(instance_nodes, key=lambda n: -cpu[pos[n]]):
                        if remaining <= _MHZ_EPS:
                            break
                        i = pos[node_id]
                        give = min(cpu[i], remaining)
                        grants[node_id] += give
                        cpu[i] -= give
                        remaining -= give

            # Start new instances while a meaningful share is unplaced.
            threshold = max(
                app.target_allocation * self.config.web_start_threshold, _MHZ_EPS
            )
            count = len(instance_nodes)
            if not (remaining <= threshold or count >= app.max_instances):
                for node_id in self._start_candidates(app, state):
                    if remaining <= threshold or count >= app.max_instances:
                        break
                    i = pos[node_id]
                    if mem[i] < app.instance_memory_mb or cpu[i] <= _MHZ_EPS:
                        continue
                    if not self._budget_allows(budget, 1):
                        break
                    give = min(cpu[i], remaining)
                    mem[i] -= app.instance_memory_mb
                    cpu[i] -= give
                    grants[node_id] = give
                    solution.started_instances.append((app.app_id, node_id))
                    self._spend(budget, 1)
                    solution.changes += 1
                    count += 1
                    remaining -= give

            # Stop idle instances (never below min_instances); their memory
            # returns to the pool for apps processed later this cycle.
            if self.config.stop_idle_instances:
                for node_id in instance_nodes:
                    if count <= app.min_instances:
                        break
                    if grants.get(node_id, 0.0) <= _MHZ_EPS:
                        if not self._budget_allows(budget, 1):
                            break
                        grants.pop(node_id, None)
                        mem[pos[node_id]] += app.instance_memory_mb
                        solution.stopped_instances.append((app.app_id, node_id))
                        self._spend(budget, 1)
                        solution.changes += 1
                        count -= 1

            # Record placement entries (memory was reserved up front for
            # retained instances and at start time for new ones).
            total = 0.0
            for node_id, grant in sorted(grants.items()):
                place(
                    instance_vm_id(app.app_id, node_id),
                    node_id,
                    grant,
                    app.instance_memory_mb,
                    WorkloadKind.TRANSACTIONAL,
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
        # The grant is clamped non-negative: max(grant, 0.0), NaN kept.
        if grant < 0.0:
            grant = 0.0
        solution.placement.place(
            request.vm_id, node_id, grant, request.memory_mb, WorkloadKind.LONG_RUNNING
        )
        solution.job_rates[request.job_id] = grant

    @staticmethod
    def _start_candidates(app: AppRequest, state: _ClusterState) -> list[str]:
        """Nodes without an instance of ``app``, in the order new ones start.

        Most free CPU first, ids breaking ties (one stable argsort instead
        of a keyed Python sort); with a latency-aware ranking, ranked
        nodes first (lower rank = closer to the users), that order within
        a rank and among the unranked tail (stable sort).
        """
        ids, current = state.ids, app.current_nodes
        order = np.argsort(-np.array(state.cpu, dtype=float), kind="stable").tolist()
        candidates = [ids[j] for j in order if ids[j] not in current]
        if app.preferred_nodes:
            rank = dict(app.preferred_nodes)
            unranked = len(rank)
            candidates.sort(key=lambda nid: rank.get(nid, unranked))
        return candidates

    def _best_node_for(
        self, request: JobRequest, cpu: np.ndarray, mem: np.ndarray
    ) -> Optional[int]:
        """Index of the node giving the job the most CPU (ties: less spare
        memory, id).

        Vectorized lexicographic minimum of ``(-grant, mem, node_id)``
        over the residual arrays: maximize the achievable grant, then
        prefer the tightest memory fit, then the smallest id (node order
        is id-sorted, so "first index" is the id tie-break).  Identical to
        the seed's scan.
        """
        want = min(request.target_rate, request.speed_cap)
        grant = np.minimum(cpu, want)
        ok = (mem >= request.memory_mb) & (grant >= self.config.min_job_rate)
        if not ok.any():
            return None
        masked = np.where(ok, grant, -np.inf)
        best = masked.max()
        mem_among_best = np.where(masked == best, mem, np.inf)
        return int(np.argmin(mem_among_best))

    @staticmethod
    def _node_with_room(
        request: JobRequest, cpu: np.ndarray, mem: np.ndarray, need_cpu: Mhz
    ) -> Optional[int]:
        """Index of a node that can host the job at its full target, or ``None``.

        Vectorized first-match of the seed's ``(-cpu, id)`` scan order:
        the first index attaining the maximal free CPU among feasible
        nodes (``argmax`` returns the earliest, i.e. smallest id).
        """
        ok = (mem >= request.memory_mb) & (cpu >= need_cpu)
        if not ok.any():
            return None
        masked = np.where(ok, cpu, -np.inf)
        return int(np.argmax(masked))

    @staticmethod
    def _budget_allows(budget: list[Optional[int]], cost: int) -> bool:
        return budget[0] is None or budget[0] >= cost

    @staticmethod
    def _spend(budget: list[Optional[int]], cost: int) -> None:
        if budget[0] is not None:
            budget[0] -= cost
