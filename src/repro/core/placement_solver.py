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
The solver takes one cycle's job requests as a
:class:`~repro.core.job_scheduler.JobRequests` record (columns in the
snapshot's order) and keeps each request row's node and grant in arrays
(:class:`_JobState`).  Retention and the per-node water-fill are one vector
pass over the retained rows in (node, job id) order, whose per-node sums
and residuals (``np.add.at``, ``np.subtract.at``) are the sequential
float operations of a per-node loop; below ``_RETAIN_VECTOR_MIN``
retained jobs that loop runs instead, being faster there.  An
application's share goes over its existing instances (fair pass, then
greedy pass) as array passes from ``_WEB_VECTOR_MIN`` instances, the
running share being a ``np.subtract.accumulate`` until it binds.
Retained jobs and each application's instances enter the placement in
one :meth:`~repro.cluster.placement.Placement.place_many` call each.
Admission, eviction picks, migrations and instance starts and stops keep
their per-request loops over the columns; the residual node capacities
are plain float lists (:class:`_ClusterState`, copied from the
:class:`~repro.cluster.node.NodeTable`'s id-sorted columns, so a solve
sorts no nodes) read and written per placed VM with the seed's float
arithmetic.  The per-request node-selection queries
(:meth:`PlacementSolver._best_node_for`,
:meth:`PlacementSolver._node_with_room`, the new-instance candidate
order) are vectorized reductions over numpy copies of the residuals,
which admission and rebalance keep in step with their own changes.  The
reductions replicate the documented lexicographic tie-break keys
*exactly*, so the solver is bit-for-bit identical to the seed
implementation, entry insertion order included (enforced by
``tests/property/test_solver_equivalence.py``; each vector pass also has
a ``float.hex`` differential in ``tests/property/test_columns.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Mapping, Optional, Sequence

import numpy as np

from ..cluster.node import NodeSpec, NodeTable
from ..cluster.placement import Placement, instance_vm_id
from ..config import SolverConfig
from ..errors import ConfigurationError
from ..types import Mhz, WorkloadKind
from .job_scheduler import (
    AppRequest,
    EvictionPolicy,
    JobRequest,
    JobRequests,
    VictimIndex,
)

#: Allocation slivers below this many MHz are treated as zero.
_MHZ_EPS = 1e-6

#: Sort keys for the solver's deterministic orderings: identical orders to
#: the former lambdas, without the per-element Python-frame cost.
_by_app_id = attrgetter("app_id")

#: Population size beyond which water-fill orders targets with numpy's
#: stable argsort (identical order to the Python sort, smaller constant)
#: and the boost phase gathers headroom into arrays.  Below it plain
#: Python is faster for the solver's per-node fills (a handful of jobs).
_WATER_FILL_VECTOR_MIN = 128

#: Retained-job count from which retention runs as one vector pass;
#: below it a per-node Python loop over the same columns is faster.
_RETAIN_VECTOR_MIN = 80

#: Instance count from which an app's share goes over its instances in
#: array passes; below it the per-instance loops are faster.
_WEB_VECTOR_MIN = 64


class _ClusterState:
    """Residual per-node capacity during solving.

    Node order is the :class:`~repro.cluster.node.NodeTable`'s: ids
    sorted ascending.  ``ids`` and ``pos`` are the table's own (shared,
    read-only); the CPU and memory residuals start as copies of its
    columns, as plain float lists read and written once or twice per
    placed VM (the seed's per-object float arithmetic, at a fraction of a
    numpy scalar access's cost).  The vectorized node queries work on a
    numpy copy (:meth:`arrays`) that their phase keeps in step with each
    change it makes.
    """

    __slots__ = ("ids", "pos", "cpu", "mem")

    def __init__(self, nodes: Sequence[NodeSpec]) -> None:
        table = NodeTable.of(nodes)
        self.ids: Sequence[str] = table.ids
        self.pos: Mapping[str, int] = table.pos
        self.cpu: list[float] = table.cpu.tolist()
        self.mem: list[float] = table.mem.tolist()

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


def _retain_vector(
    pos: np.ndarray, want: np.ndarray, memory: np.ndarray, state: _ClusterState
) -> list[Mhz]:
    """The retained rows' grants, node by node, updating ``state``.

    ``pos`` holds each row's node position, ascending.  ``np.add.at``
    and ``np.subtract.at`` apply unbuffered, in index order, so the
    per-node sums and residuals are the sequential ``sum`` and
    ``cpu -= grant`` of :func:`_retain_scalar`.
    """
    cpu, mem = state.arrays()
    sums = np.zeros(len(cpu))
    np.add.at(sums, pos, want)
    # Rare: water_fill returns fitting targets unchanged.
    for i in np.flatnonzero(~(sums <= cpu)).tolist():
        lo, hi = np.searchsorted(pos, (i, i + 1)).tolist()
        want[lo:hi] = water_fill(want[lo:hi].tolist(), cpu.item(i))
    np.subtract.at(cpu, pos, want)
    np.subtract.at(mem, pos, memory)
    short = mem[pos] < -1e-6
    if short.any():
        i = pos.item(int(short.argmax()))
        raise _retained_memory_error(state.ids[i], mem.item(i))
    want[want < 0.0] = 0.0  # as _place_job clamps
    state.cpu, state.mem = cpu.tolist(), mem.tolist()
    return want.tolist()


def _retain_scalar(
    pos: list[int], want: list[Mhz], memory: list[float], state: _ClusterState
) -> list[Mhz]:
    """:func:`_retain_vector` for a few rows, one node at a time."""
    cpu, mem = state.cpu, state.mem
    granted: list[Mhz] = []
    start, count = 0, len(pos)
    while start < count:
        i = pos[start]
        end = start + 1
        while end < count and pos[end] == i:
            end += 1
        grants = want[start:end]
        node_cpu = cpu[i]
        if not sum(grants) <= node_cpu:  # water_fill returns fitting targets
            grants = water_fill(grants, node_cpu)
        node_mem = mem[i]
        for footprint, grant in zip(memory[start:end], grants):
            node_mem -= footprint
            node_cpu -= grant
            granted.append(0.0 if grant < 0.0 else grant)  # as _place_job clamps
        cpu[i] = node_cpu
        mem[i] = node_mem
        if node_mem < -1e-6:
            raise _retained_memory_error(state.ids[i], node_mem)
        start = end
    return granted


def _retained_memory_error(node_id: str, residual: float) -> ConfigurationError:
    # Memory feasibility is inherited from the previous (validated)
    # placement; a defensive check still guards solver-input bugs.  Web
    # reservations raised already, so the first node in id order to fall
    # short is the one a scan of all would name.
    return ConfigurationError(
        f"node {node_id}: retained jobs exceed memory ({residual:.1f} MB)"
    )


def _share_over_instances(
    instance_nodes: list[str], remaining: Mhz, state: _ClusterState
) -> tuple[dict[str, Mhz], Mhz]:
    """An app's share over its existing instances: a fair first pass, then
    a greedy pass (most free CPU first) while a share is left.

    Returns each instance's grant and the share left, taking the grants
    from ``state.cpu``.  From ``_WEB_VECTOR_MIN`` instances both passes
    run as :func:`_share_vector`.
    """
    if len(instance_nodes) >= _WEB_VECTOR_MIN:
        return _share_vector(instance_nodes, remaining, state)
    cpu, pos = state.cpu, state.pos
    grants: dict[str, Mhz] = {}
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
    return grants, remaining


def _share_vector(
    instance_nodes: list[str], remaining: Mhz, state: _ClusterState
) -> tuple[dict[str, Mhz], Mhz]:
    """:func:`_share_over_instances` as array passes, bit for bit.

    Each pass's grant is a ``min`` with the share still left.  Until that
    share binds, the grant is the ``min`` of the other terms, and the
    shares left are the sequential subtractions ``np.subtract.accumulate``
    performs; from the first instance where it binds (or the greedy pass
    stops) the scalar loop finishes.
    """
    cpu = state.cpu
    idx = [state.pos[node_id] for node_id in instance_nodes]
    free = np.array([cpu[i] for i in idx])
    count = len(idx)
    fair = remaining / count
    # Fair pass: min(cpu, fair, remaining), instances in id order.
    give = np.where(fair < free, fair, free)
    left = np.subtract.accumulate(np.concatenate(([remaining], give)))
    binds = np.flatnonzero(left[:-1] < give)
    done = binds.item(0) if len(binds) else count
    free[:done] -= give[:done]
    remaining = left.item(done)
    for j in range(done, count):
        f = free.item(j)
        g = min(f, fair, remaining)
        give[j] = g
        free[j] = f - g
        remaining -= g
    # Greedy pass: min(cpu, remaining), most free CPU first (stable, so
    # id order among equals), while more than a sliver is left.
    if not remaining <= _MHZ_EPS:
        order = np.argsort(-free, kind="stable")
        take = free[order]
        left = np.subtract.accumulate(np.concatenate(([remaining], take)))
        stops = np.flatnonzero((left[:-1] <= _MHZ_EPS) | (left[:-1] < take))
        done = stops.item(0) if len(stops) else count
        head = order[:done]
        give[head] += take[:done]
        free[head] -= take[:done]
        remaining = left.item(done)
        for j in order[done:].tolist():
            if remaining <= _MHZ_EPS:
                break
            f = free.item(j)
            g = min(f, remaining)
            give[j] = give.item(j) + g
            free[j] = f - g
            remaining -= g
    for i, f in zip(idx, free.tolist()):
        cpu[i] = f
    return dict(zip(instance_nodes, give.tolist())), remaining


class _JobState:
    """One solve's job requests and where the solve has put each row.

    ``node`` holds each request row's node position (``-1`` while not
    placed) and ``grant`` its CPU grant; every phase that places, moves
    or evicts a job keeps both in step with the placement.
    """

    __slots__ = ("requests", "node", "grant")

    def __init__(self, requests: JobRequests, host: np.ndarray) -> None:
        self.requests = requests
        self.node = host.copy()
        self.grant = np.zeros(len(requests))


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
        jobs: JobRequests | Sequence[JobRequest],
        lr_target: Optional[Mhz] = None,
    ) -> PlacementSolution:
        """Compute a feasible placement for one cycle.

        ``nodes`` must be the *active* nodes; requests referring to other
        nodes are treated as displaced (their VMs need re-placement).
        ``jobs`` is one :class:`JobRequests` record or any sequence of
        :class:`JobRequest`, converted once on entry.

        ``lr_target`` is the arbiter's aggregate long-running share.  When
        memory slots prevent placing every job, the share intended for the
        waiting jobs is *redistributed* to the placed ones (up to their
        speed caps) instead of idling -- the placed jobs run faster now
        and the waiting jobs take over freed slots later, which is how a
        work-conserving hypervisor realizes the divisible-CPU decision.
        ``None`` disables redistribution (each job is capped at its own
        target; used by baselines that set explicit per-job rates).
        """
        requests = JobRequests.of(jobs)
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

        # A request whose host is an active node is retained; any other
        # (no host, or a failed one) is displaced and waits.
        host = np.fromiter(
            map(state.pos.get, requests.current_node, repeat(-1)),
            np.intp,
            len(requests),
        )
        job_state = _JobState(requests, host)
        running = self._retain_and_waterfill(job_state, state, solution)
        waiting = requests.urgency_order(np.flatnonzero(host < 0))
        targets = requests.target_rate[waiting]
        min_rate = self.config.min_job_rate
        runnable = waiting[targets >= min_rate].tolist()
        job_id = requests.job_id.__getitem__
        solution.deferred_jobs = list(map(job_id, waiting[targets < min_rate].tolist()))

        leftover = self._admit(job_state, runnable, state, solution, budget)
        leftover = self._evict_and_admit(
            job_state, leftover, running, state, solution, budget
        )
        solution.unplaced_jobs = list(map(job_id, leftover))
        self._rebalance(job_state, running, state, solution, budget)
        self._boost_jobs(job_state, state, solution, lr_target)
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
    def _retain_and_waterfill(
        jobs: _JobState, state: _ClusterState, solution: PlacementSolution
    ) -> np.ndarray:
        """Phases 1-2: keep running jobs in place, grant CPU by water-fill.

        One pass over the retained rows, ordered by (node, job id): each
        grant is ``min(target, cap)``; a node whose grants sum past its
        CPU shares it by :func:`water_fill` instead.  The retained jobs
        enter the placement in one bulk insert.  Returns the retained
        rows in that order.
        """
        requests = jobs.requests
        rows = np.flatnonzero(jobs.node >= 0)
        rows = rows[np.lexsort((requests.id_rank[rows], jobs.node[rows]))]
        if not len(rows):
            return rows
        pos = jobs.node[rows]
        want = np.minimum(requests.target_rate[rows], requests.speed_cap[rows])
        memory = requests.memory_mb[rows]
        pos_list, footprints = pos.tolist(), memory.tolist()
        if len(rows) >= _RETAIN_VECTOR_MIN:
            granted = _retain_vector(pos, want, memory, state)
        else:
            granted = _retain_scalar(pos_list, want.tolist(), footprints, state)
        jobs.grant[rows] = granted
        row_list = rows.tolist()
        solution.placement.place_many(
            list(map(requests.vm_id.__getitem__, row_list)),
            list(map(state.ids.__getitem__, pos_list)),
            granted,
            footprints,
            WorkloadKind.LONG_RUNNING,
        )
        solution.job_rates.update(
            zip(map(requests.job_id.__getitem__, row_list), granted)
        )
        return rows

    def _admit(
        self,
        jobs: _JobState,
        runnable: list[int],
        state: _ClusterState,
        solution: PlacementSolution,
        budget: list[Optional[int]],
    ) -> list[int]:
        """Phase 3: place waiting jobs, most urgent first.  Returns leftovers."""
        leftover: list[int] = []
        if not runnable:
            return leftover
        # Between admissions the node state is frozen, so one reduction
        # over it bounds every later query: a request needing more memory
        # than any node that can still grant min_job_rate offers cannot
        # fit.  Admission runs over *hundreds* of requests that mostly
        # fail on memory slots; this makes each such failure O(1) instead
        # of a full node scan, with exactly the same outcome.  The bound
        # is the max of a column -- each node's memory where it can grant
        # min_job_rate, -inf elsewhere -- kept in step with one scalar
        # write per admission.
        min_rate = self.config.min_job_rate
        requests = jobs.requests
        cpu, mem = state.cpu, state.mem
        cpu_arr, mem_arr = state.arrays()
        fit_mem = np.where(cpu_arr >= min_rate, mem_arr, -np.inf)
        max_fit_mem: Optional[float] = None  # None = stale, recompute
        rows = np.array(runnable, dtype=np.intp)
        for row, target, cap, memory in zip(
            runnable,
            requests.target_rate[rows].tolist(),
            requests.speed_cap[rows].tolist(),
            requests.memory_mb[rows].tolist(),
        ):
            if not self._budget_allows(budget, 1):
                leftover.append(row)
                continue
            if max_fit_mem is None:
                max_fit_mem = fit_mem.max().item() if len(fit_mem) else -np.inf
            want = min(target, cap)
            if memory > max_fit_mem or want < min_rate:
                # _best_node_for would scan and return None: no node has
                # both the memory and a grant reaching min_job_rate.
                leftover.append(row)
                continue
            i = self._best_node_for(want, memory, cpu_arr, mem_arr)
            if i is None:
                leftover.append(row)
                continue
            grant = min(target, cap, cpu[i])
            mem[i] -= memory
            cpu[i] -= grant
            cpu_arr[i] = cpu[i]
            mem_arr[i] = mem[i]
            fit_mem[i] = mem[i] if cpu[i] >= min_rate else -np.inf
            max_fit_mem = None
            self._place_job(jobs, solution, row, i, state.ids[i], grant)
            self._spend(budget, 1)
            solution.changes += 1
        return leftover

    def _evict_and_admit(
        self,
        jobs: _JobState,
        leftover: list[int],
        running: np.ndarray,
        state: _ClusterState,
        solution: PlacementSolution,
        budget: list[Optional[int]],
    ) -> list[int]:
        """Phase 4: displace clearly less urgent running jobs."""
        still_unplaced: list[int] = []
        if not leftover:
            return still_unplaced
        # Only jobs retained this cycle (not freshly admitted) are victims.
        # The index is built once and maintained across requests (the
        # seed rebuilt the candidate list per request and scanned it in
        # full: O(requests x running)).
        requests = jobs.requests
        victims = VictimIndex(self._eviction, requests, running)
        cpu, mem = state.cpu, state.mem
        evictions = 0
        for row in leftover:
            if evictions >= self.config.max_evictions:
                still_unplaced.append(row)
                continue
            target = requests.target_rate.item(row)
            memory = requests.memory_mb.item(row)
            victim = victims.pick_row(target, memory)
            if victim is None or not self._budget_allows(budget, 2):
                still_unplaced.append(row)
                continue
            i = jobs.node.item(victim)
            # Undo the victim's placement.
            mem[i] += requests.memory_mb.item(victim)
            cpu[i] += solution.job_rates.pop(requests.job_id[victim])
            solution.placement.remove(requests.vm_id[victim])
            solution.evicted_jobs.append(requests.job_id[victim])
            victims.discard_row(victim)
            jobs.node[victim] = -1
            # Place the more urgent job in the freed slot.
            grant = min(target, requests.speed_cap.item(row), cpu[i])
            mem[i] -= memory
            cpu[i] -= grant
            self._place_job(jobs, solution, row, i, state.ids[i], grant)
            self._spend(budget, 2)
            solution.changes += 2
            evictions += 1
        return still_unplaced

    def _rebalance(
        self,
        jobs: _JobState,
        running: np.ndarray,
        state: _ClusterState,
        solution: PlacementSolution,
        budget: list[Optional[int]],
    ) -> None:
        """Phase 5: migrate starved running jobs to roomier nodes."""
        if self.config.max_migrations == 0 or not len(running):
            return
        requests = jobs.requests
        rows = running[jobs.node[running] >= 0]  # not evicted above
        target = np.minimum(requests.target_rate[rows], requests.speed_cap[rows])
        granted = jobs.grant[rows]
        starved = (target > 0) & (granted < target * self.config.migration_deficit)
        if not starved.any():
            return
        rows, target = rows[starved], target[starved]
        # Largest deficit first, job ids breaking ties.
        order = np.lexsort((requests.id_rank[rows], -(target - granted[starved])))
        cpu, mem = state.cpu, state.mem
        cpu_arr, mem_arr = state.arrays()
        migrated = 0
        for row, want in zip(rows[order].tolist(), target[order].tolist()):
            if migrated >= self.config.max_migrations:
                break
            if not self._budget_allows(budget, 1):
                break
            memory = requests.memory_mb.item(row)
            dest = self._node_with_room(memory, cpu_arr, mem_arr, need_cpu=want)
            src = jobs.node.item(row)
            if dest is None or dest == src:
                continue
            mem[src] += memory
            cpu[src] += solution.job_rates.pop(requests.job_id[row])
            solution.placement.remove(requests.vm_id[row])
            grant = min(want, cpu[dest])
            mem[dest] -= memory
            cpu[dest] -= grant
            for i in (src, dest):
                cpu_arr[i] = cpu[i]
                mem_arr[i] = mem[i]
            self._place_job(jobs, solution, row, dest, state.ids[dest], grant)
            solution.migrated_jobs.append(requests.job_id[row])
            self._spend(budget, 1)
            solution.changes += 1
            migrated += 1

    @staticmethod
    def _boost_jobs(
        jobs: _JobState,
        state: _ClusterState,
        solution: PlacementSolution,
        lr_target: Optional[Mhz],
    ) -> None:
        """Redistribute the unplaced long-running share to placed jobs.

        Raises placed jobs' grants toward their speed caps (water-filling
        the headroom per node, nodes in id order, each node's jobs in VM
        id order) until either the aggregate ``lr_target`` is consumed or
        every placed job is capped.  Free: pure CPU-share adjustment, no
        placement change.
        """
        if lr_target is None:
            return
        room = lr_target - sum(solution.job_rates.values())
        if room <= _MHZ_EPS:
            return
        # Each node's placed jobs, nodes in id (= position) order.
        by_node: dict[int, list[int]] = {}
        for row, i in enumerate(jobs.node.tolist()):
            if i >= 0:
                by_node.setdefault(i, []).append(row)
        requests = jobs.requests
        vm_ids, job_ids = requests.vm_id, requests.job_id
        caps, grants = requests.speed_cap, jobs.grant
        cpu = state.cpu
        placement = solution.placement
        for i in sorted(by_node):
            if room <= _MHZ_EPS:
                break
            members = sorted(by_node[i], key=vm_ids.__getitem__)
            if len(members) >= _WATER_FILL_VECTOR_MIN:
                # Back to Python floats: the residuals stay plain floats.
                headroom = np.maximum(caps[members] - grants[members], 0.0).tolist()
            else:
                headroom = [
                    max(caps.item(r) - grants.item(r), 0.0) for r in members
                ]
            # Residuals can carry -1e-14-scale float dust after repeated
            # subtraction; clamp before sharing.
            budget_here = max(min(cpu[i], room), 0.0)
            extra = water_fill(headroom, budget_here)
            for r, boost in zip(members, extra):
                if boost <= _MHZ_EPS:
                    continue
                new_grant = grants.item(r) + boost
                placement.update_cpu(vm_ids[r], new_grant)
                solution.job_rates[job_ids[r]] = new_grant
                grants[r] = new_grant
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
        for app, instance_nodes in app_instances:
            grants, remaining = _share_over_instances(
                instance_nodes, app.target_allocation, state
            )

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

            # Record placement entries, in node-id order (memory was
            # reserved up front for retained instances and at start time
            # for new ones).
            node_ids = sorted(grants)
            given = list(map(grants.__getitem__, node_ids))
            prefix = instance_vm_id(app.app_id, "")  # an id is prefix + node id
            solution.placement.place_many(
                [prefix + node_id for node_id in node_ids],
                node_ids,
                given,
                [app.instance_memory_mb] * len(node_ids),
                WorkloadKind.TRANSACTIONAL,
            )
            solution.app_allocations[app.app_id] = sum(given, 0.0)

    # ------------------------------------------------------------------
    # Small utilities
    # ------------------------------------------------------------------
    @staticmethod
    def _place_job(
        jobs: _JobState,
        solution: PlacementSolution,
        row: int,
        node: int,
        node_id: str,
        grant: Mhz,
    ) -> None:
        # The grant is clamped non-negative: max(grant, 0.0), NaN kept.
        if grant < 0.0:
            grant = 0.0
        requests = jobs.requests
        solution.placement.place(
            requests.vm_id[row],
            node_id,
            grant,
            requests.memory_mb.item(row),
            WorkloadKind.LONG_RUNNING,
        )
        solution.job_rates[requests.job_id[row]] = grant
        jobs.node[row] = node
        jobs.grant[row] = grant

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
        self, want: Mhz, memory: float, cpu: np.ndarray, mem: np.ndarray
    ) -> Optional[int]:
        """Index of the node giving the job the most CPU (ties: less spare
        memory, id).

        The lexicographic minimum of ``(-grant, mem, node_id)`` over the
        residual arrays, among nodes with the memory whose grant
        ``min(cpu, want)`` reaches ``min_job_rate``: maximize the grant,
        then prefer the tightest memory fit, then the smallest id (node
        order is id-sorted, so "first index" is the id tie-break).
        Identical to the seed's scan.  ``want`` is the job's
        ``min(target, cap)``, so no grant exceeds it: when some node with
        the memory can grant all of it -- nearly always -- those nodes
        are the most-grant set, and one mask and one ``argmin`` pick among
        them.  Only otherwise does the most-grant scan run.
        """
        if not (want >= self.config.min_job_rate and len(cpu)):  # NaN too
            return None
        full = np.where((cpu >= want) & (mem >= memory), mem, np.inf)
        i = int(full.argmin())
        if full.item(i) < np.inf:
            return i
        grant = np.minimum(cpu, want)
        ok = (mem >= memory) & (grant >= self.config.min_job_rate)
        if not ok.any():
            return None
        masked = np.where(ok, grant, -np.inf)
        best = masked.max()
        mem_among_best = np.where(masked == best, mem, np.inf)
        return int(np.argmin(mem_among_best))

    @staticmethod
    def _node_with_room(
        memory: float, cpu: np.ndarray, mem: np.ndarray, need_cpu: Mhz
    ) -> Optional[int]:
        """Index of a node that can host the job at its full target, or ``None``.

        Vectorized first-match of the seed's ``(-cpu, id)`` scan order:
        the first index attaining the maximal free CPU among feasible
        nodes (``argmax`` returns the earliest, i.e. smallest id).
        """
        ok = (mem >= memory) & (cpu >= need_cpu)
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
