"""Job-selection policies and the placement solver's request types.

The hypothetical-utility equalization hands every incomplete job a target
CPU rate; memory, however, bounds how many jobs fit on the nodes (in the
paper's setup only three per node), so the controller must pick *which*
jobs actually run.  The policies here order jobs by **urgency** -- the
equalized target rate itself: a job that needs more MHz to hold the common
utility level is closer to violating its SLA -- and decide when a waiting
job is urgent enough to evict (suspend) a running one.

One cycle's job requests travel as one :class:`JobRequests` record: a
column per :class:`JobRequest` field, in the snapshot's order, which the
controller fills from gathers of the job table and the greedy solver
reads as arrays.  ``requests[i]`` is row ``i`` as a :class:`JobRequest`,
and iterating the record yields the rows, which is how the MILP backend,
the baselines' request lists and the tests see requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ..cluster.placement import instance_vm_id
from ..errors import ConfigurationError
from ..types import Cycles, Megabytes, Mhz, Seconds
from ..workloads.jobs import id_rank


@dataclass(slots=True, unsafe_hash=True)
class JobRequest:
    """One incomplete job's placement request for a control cycle.

    Immutable by convention (nothing in the pipeline mutates requests);
    not ``frozen=True`` because frozen-dataclass construction costs ~2.3x
    (``object.__setattr__`` per field) and :class:`JobRequests` builds a
    row on every index.  ``unsafe_hash`` keeps the field-based hash a
    frozen dataclass would have generated, consistent with ``__eq__``.

    Attributes
    ----------
    job_id / vm_id:
        Identifiers (the VM id keys placement entries).
    target_rate:
        CPU rate from the hypothetical equalization, MHz.
    speed_cap:
        Upper bound on any grant, MHz.
    memory_mb:
        VM footprint.
    current_node:
        Node currently hosting the job's VM, or ``None`` when pending or
        suspended.
    was_suspended:
        True when the VM exists in suspended state (resuming costs more
        than starting fresh bookkeeping-wise, and the planner must emit
        Resume rather than Start).
    submit_time:
        For deterministic tie-breaking (older first).
    importance:
        Job weight (reporting; ordering uses the target rate).
    remaining_work:
        Remaining CPU work (MHz·s); lets the eviction policy protect jobs
        that are about to finish.  ``inf`` (the default) disables the
        protection for callers that do not track progress.
    """

    job_id: str
    vm_id: str
    target_rate: Mhz
    speed_cap: Mhz
    memory_mb: Megabytes
    current_node: Optional[str]
    was_suspended: bool
    submit_time: Seconds
    importance: float = 1.0
    remaining_work: Cycles = math.inf

    def __post_init__(self) -> None:
        if self.target_rate < 0:
            raise ConfigurationError(f"job {self.job_id}: negative target rate")
        if self.speed_cap <= 0:
            raise ConfigurationError(f"job {self.job_id}: non-positive speed cap")
        if self.memory_mb <= 0:
            raise ConfigurationError(f"job {self.job_id}: non-positive memory")
        if self.remaining_work < 0:
            raise ConfigurationError(f"job {self.job_id}: negative remaining work")

    @property
    def urgency(self) -> float:
        """Urgency key: the equalized target rate (higher = more at risk)."""
        return self.target_rate

    @property
    def min_remaining_time(self) -> Seconds:
        """Fastest possible time to completion (at the speed cap)."""
        return self.remaining_work / self.speed_cap


#: The float columns of :class:`JobRequests`, in :class:`JobRequest` field order.
_FLOAT_COLUMNS = (
    "target_rate", "speed_cap", "memory_mb", "submit_time", "importance",
    "remaining_work",
)


class JobRequests:
    """One cycle's job requests as columns, in snapshot order.

    ``job_id``, ``vm_id`` and ``current_node`` are lists; ``target_rate``,
    ``speed_cap``, ``memory_mb``, ``submit_time``, ``importance`` and
    ``remaining_work`` float arrays; ``was_suspended`` a bool array; and
    ``id_rank`` each row's rank in job-id order (ids sort as strings).
    Only the ranks' order counts: they need not run from 0.

    ``requests[i]`` is row ``i`` as a :class:`JobRequest`, and iteration
    yields the rows, so the record stands wherever a sequence of requests
    does.  The columns are not checked: :meth:`of` builds the record from
    requests that checked themselves, and the controller fills it from
    values checked upstream (spec validation for caps and memory, the
    equalizer's non-negative rates, the snapshot's clamped remaining work).
    """

    __slots__ = (
        "job_id", "vm_id", "current_node", *_FLOAT_COLUMNS, "was_suspended", "id_rank",
    )

    def __init__(
        self,
        job_id: list[str],
        vm_id: list[str],
        current_node: list[Optional[str]],
        target_rate: np.ndarray,
        speed_cap: np.ndarray,
        memory_mb: np.ndarray,
        submit_time: np.ndarray,
        importance: np.ndarray,
        remaining_work: np.ndarray,
        was_suspended: np.ndarray,
        id_rank: np.ndarray,
    ) -> None:
        self.job_id = job_id
        self.vm_id = vm_id
        self.current_node = current_node
        self.target_rate = target_rate
        self.speed_cap = speed_cap
        self.memory_mb = memory_mb
        self.submit_time = submit_time
        self.importance = importance
        self.remaining_work = remaining_work
        self.was_suspended = was_suspended
        self.id_rank = id_rank

    @classmethod
    def of(cls, requests: Sequence[JobRequest]) -> "JobRequests":
        """``requests`` as one record (a record is returned as it is)."""
        if isinstance(requests, JobRequests):
            return requests
        rows = list(requests)
        job_ids = [r.job_id for r in rows]
        floats = (
            np.array(
                [[getattr(r, name) for name in _FLOAT_COLUMNS] for r in rows],
                dtype=float,
            )
            .reshape(len(rows), len(_FLOAT_COLUMNS))
            .T.copy()
        )
        return cls(
            job_ids,
            [r.vm_id for r in rows],
            [r.current_node for r in rows],
            *floats,
            np.array([r.was_suspended for r in rows], dtype=bool),
            id_rank(job_ids),
        )

    def __len__(self) -> int:
        return len(self.job_id)

    def __getitem__(self, i: int) -> JobRequest:
        return JobRequest(
            self.job_id[i],
            self.vm_id[i],
            self.target_rate.item(i),
            self.speed_cap.item(i),
            self.memory_mb.item(i),
            self.current_node[i],
            self.was_suspended.item(i),
            self.submit_time.item(i),
            self.importance.item(i),
            self.remaining_work.item(i),
        )

    def __iter__(self) -> Iterator[JobRequest]:
        return map(self.__getitem__, range(len(self.job_id)))

    def urgency_order(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` most urgent first, as :func:`order_by_urgency` orders them."""
        return rows[
            np.lexsort(
                (self.id_rank[rows], self.submit_time[rows], -self.target_rate[rows])
            )
        ]


@dataclass(frozen=True, slots=True)
class AppRequest:
    """One web application's placement request for a control cycle.

    Attributes
    ----------
    app_id:
        Application identifier; instance VM ids are derived as
        ``tx:{app_id}@{node_id}`` so they are stable per (app, node).
    target_allocation:
        Aggregate CPU the arbiter granted the app, MHz.
    instance_memory_mb:
        Footprint of one instance VM.
    min_instances / max_instances:
        Bounds on the instance count.
    current_nodes:
        Nodes hosting an instance entering this cycle.
    preferred_nodes:
        Latency-aware candidate ranking for *new* instances: ``(node_id,
        rank)`` pairs, lower rank = more preferred (see
        :meth:`repro.netmodel.context.NetworkContext.preferred_nodes`).
        Ranked nodes are tried before unranked ones; within a rank the
        solver keeps its free-CPU order.  Empty (the default) leaves the
        solver's candidate order untouched.
    """

    app_id: str
    target_allocation: Mhz
    instance_memory_mb: Megabytes
    min_instances: int
    max_instances: int
    current_nodes: frozenset[str]
    # New fields append after the seed ones so positional construction
    # of this public frozen dataclass keeps working.
    preferred_nodes: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.target_allocation < 0:
            raise ConfigurationError(f"app {self.app_id}: negative target")
        if self.instance_memory_mb <= 0:
            raise ConfigurationError(f"app {self.app_id}: non-positive memory")
        if self.min_instances < 1 or self.max_instances < self.min_instances:
            raise ConfigurationError(f"app {self.app_id}: bad instance bounds")
        if any(rank < 0 for _, rank in self.preferred_nodes):
            raise ConfigurationError(f"app {self.app_id}: negative preference rank")

    def instance_vm_id(self, node_id: str) -> str:
        """The stable VM id of this app's instance on ``node_id``."""
        return instance_vm_id(self.app_id, node_id)


def order_by_urgency(requests: Sequence[JobRequest]) -> list[JobRequest]:
    """Most urgent first; ties broken by submission time then id.

    Deterministic total order -- identical inputs always produce the same
    placement decisions.
    """
    # r.urgency is the target rate (see JobRequest.urgency); read the
    # field directly to skip one property call per element on this
    # every-cycle sort.
    return sorted(
        requests, key=lambda r: (-r.target_rate, r.submit_time, r.job_id)
    )


def split_runnable(
    requests: Sequence[JobRequest], min_rate: Mhz
) -> tuple[list[JobRequest], list[JobRequest]]:
    """Partition into (worth running, deferred) by the minimum useful rate.

    Running a job at a sliver of CPU wastes a memory slot that a more
    urgent job could use; jobs whose equalized target falls below
    ``min_rate`` wait in the queue instead ("deferred").
    """
    if min_rate < 0:
        raise ConfigurationError("min_rate must be non-negative")
    runnable = [r for r in requests if r.target_rate >= min_rate]
    deferred = [r for r in requests if r.target_rate < min_rate]
    return runnable, deferred


class EvictionPolicy:
    """Decides whether a waiting job may displace a running one.

    A suspension loses checkpointed progress and costs two placement
    changes (suspend + later resume), so the waiting job must be *clearly*
    more urgent: its target rate must exceed the victim's by the relative
    ``margin``.

    ``protect_completion`` (seconds) exempts running jobs that could
    finish within that window at full speed.  Without it, a deeply
    overloaded system degenerates into lockstep processor sharing: jobs
    that just ran have the least remaining work, hence the lowest
    equalized rates, and get evicted by their peers one cycle before
    finishing -- the population progresses uniformly and *nobody*
    completes.  Letting near-done jobs run out frees their memory slots
    far sooner than a suspend/resume round trip would.
    """

    def __init__(self, margin: float = 0.25, protect_completion: Seconds = 1800.0) -> None:
        if margin < 0:
            raise ConfigurationError("margin must be non-negative")
        if protect_completion < 0:
            raise ConfigurationError("protect_completion must be non-negative")
        self.margin = margin
        self.protect_completion = protect_completion

    def should_evict(self, waiting: JobRequest, victim: JobRequest) -> bool:
        """True when ``waiting`` justifies suspending ``victim``."""
        if victim.min_remaining_time <= self.protect_completion:
            return False
        return waiting.urgency > victim.urgency * (1.0 + self.margin)

    def pick_victim(
        self, waiting: JobRequest, running: Sequence[JobRequest]
    ) -> Optional[JobRequest]:
        """Least urgent running job that :meth:`should_evict` approves.

        Only jobs whose memory release would actually admit ``waiting``
        are candidates (footprint at least as large).
        """
        candidates = [
            r
            for r in running
            if r.memory_mb >= waiting.memory_mb and self.should_evict(waiting, r)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (r.urgency, r.submit_time, r.job_id))

    def victim_index(self, running: Sequence[JobRequest]) -> "VictimIndex":
        """Precomputed index answering :meth:`pick_victim` queries in O(1)-ish.

        The placement solver asks for a victim once per unplaced request
        against a mostly-unchanged candidate set; scanning the whole
        running population per request is the O(requests x running) term
        this index removes.  Picks are identical to :meth:`pick_victim`
        over the not-yet-discarded candidates (pinned by a regression
        test and the solver equivalence suite).
        """
        requests = JobRequests.of(running)
        return VictimIndex(self, requests, np.arange(len(requests)))


class VictimIndex:
    """Vectorized eviction-victim lookup for one solver pass.

    The candidates are rows of one :class:`JobRequests` record, sorted
    by the victim preference key ``(urgency, submit_time, job_id)``; a
    query masks the columnar eligibility arrays and takes the first hit,
    which is exactly the ``min`` the policy's scan would return (job ids
    make the key a strict total order).  :meth:`discard` drops an
    evicted victim.
    """

    __slots__ = ("_requests", "_candidates", "_slot", "_memory", "_threshold", "_eligible")

    def __init__(
        self, policy: EvictionPolicy, requests: JobRequests, rows: np.ndarray
    ) -> None:
        # The preference key reads the urgency's column (the target rate).
        urgency = requests.target_rate[rows]
        order = np.lexsort(
            (requests.id_rank[rows], requests.submit_time[rows], urgency)
        )
        candidates = rows[order]
        self._requests = requests
        self._candidates = candidates
        self._slot = np.full(len(requests), -1, dtype=np.intp)
        self._slot[candidates] = np.arange(len(candidates))
        self._memory = requests.memory_mb[candidates]
        # should_evict's urgency test, with the victim-side product hoisted,
        # and its completion test (min_remaining_time), column-wise: the
        # same IEEE products and quotients as the per-request properties.
        self._threshold = urgency[order] * (1.0 + policy.margin)
        self._eligible = (
            requests.remaining_work[candidates] / requests.speed_cap[candidates]
            > policy.protect_completion
        )

    def pick_row(self, urgency: float, memory_mb: Megabytes) -> Optional[int]:
        """Record row of the first eligible victim for a waiting job with
        this urgency and footprint, or ``None``."""
        mask = (
            self._eligible
            & (self._memory >= memory_mb)
            & (urgency > self._threshold)
        )
        if not mask.any():
            return None
        return self._candidates.item(int(np.argmax(mask)))

    def pick(self, waiting: JobRequest) -> Optional[JobRequest]:
        """First (least-preferred-to-keep) eligible victim for ``waiting``."""
        row = self.pick_row(waiting.urgency, waiting.memory_mb)
        return None if row is None else self._requests[row]

    def discard_row(self, row: int) -> None:
        """Remove the candidate at record row ``row`` from future picks."""
        self._eligible[self._slot[row]] = False

    def discard(self, victim: JobRequest) -> None:
        """Remove an evicted candidate from future picks."""
        self.discard_row(self._requests.job_id.index(victim.job_id))
