"""Job-selection policies and the placement solver's request types.

The hypothetical-utility equalization hands every incomplete job a target
CPU rate; memory, however, bounds how many jobs fit on the nodes (in the
paper's setup only three per node), so the controller must pick *which*
jobs actually run.  The policies here order jobs by **urgency** -- the
equalized target rate itself: a job that needs more MHz to hold the common
utility level is closer to violating its SLA -- and decide when a waiting
job is urgent enough to evict (suspend) a running one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from ..cluster.placement import instance_vm_id
from ..errors import ConfigurationError
from ..types import Cycles, Megabytes, Mhz, Seconds


@dataclass(slots=True, unsafe_hash=True)
class JobRequest:
    """One incomplete job's placement request for a control cycle.

    Immutable by convention (nothing in the pipeline mutates requests);
    not ``frozen=True`` because the controller rebuilds one instance per
    incomplete job every control cycle and frozen-dataclass construction
    costs ~2.3x (``object.__setattr__`` per field) on that hot path.
    ``unsafe_hash`` keeps the field-based hash a frozen dataclass would
    have generated, consistent with ``__eq__``.

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

    @classmethod
    def trusted(
        cls,
        job_id: str,
        vm_id: str,
        target_rate: Mhz,
        speed_cap: Mhz,
        memory_mb: Megabytes,
        current_node: Optional[str],
        was_suspended: bool,
        submit_time: Seconds,
        importance: float,
        remaining_work: Cycles,
    ) -> "JobRequest":
        """Validation-free constructor for the controller's hot path.

        The controller builds one request per incomplete job every control
        cycle from values whose invariants are already enforced upstream
        (spec validation for caps/memory, the equalizer's non-negative
        rates, the snapshot's clamped remaining work), so re-checking them
        per request is pure overhead.  External callers must use the
        normal constructor: this one skips ``__post_init__``.
        """
        self = object.__new__(cls)
        self.job_id = job_id
        self.vm_id = vm_id
        self.target_rate = target_rate
        self.speed_cap = speed_cap
        self.memory_mb = memory_mb
        self.current_node = current_node
        self.was_suspended = was_suspended
        self.submit_time = submit_time
        self.importance = importance
        self.remaining_work = remaining_work
        return self

    @property
    def urgency(self) -> float:
        """Urgency key: the equalized target rate (higher = more at risk)."""
        return self.target_rate

    @property
    def min_remaining_time(self) -> Seconds:
        """Fastest possible time to completion (at the speed cap)."""
        return self.remaining_work / self.speed_cap


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
        return VictimIndex(self, running)


#: Victim preference key ``(urgency, submit_time, job_id)``.
_victim_order = attrgetter("target_rate", "submit_time", "job_id")


class VictimIndex:
    """Vectorized eviction-victim lookup for one solver pass.

    Candidates are pre-sorted by the victim preference key
    ``(urgency, submit_time, job_id)``; a query masks the columnar
    eligibility arrays and takes the first hit, which is exactly the
    ``min`` the policy's scan would return (job ids make the key a
    strict total order).  :meth:`discard` drops an evicted victim.
    """

    __slots__ = ("_candidates", "_memory", "_threshold", "_eligible", "_slots")

    def __init__(self, policy: EvictionPolicy, running: Sequence[JobRequest]) -> None:
        # The preference key reads the urgency's field (the target rate).
        ordered = sorted(running, key=_victim_order)
        self._candidates = ordered
        self._slots = {r.job_id: i for i, r in enumerate(ordered)}
        self._memory = np.array([r.memory_mb for r in ordered], dtype=float)
        # should_evict's urgency test, with the victim-side product hoisted,
        # and its completion test (min_remaining_time), column-wise: the
        # same IEEE products and quotients as the per-request properties.
        urgency = np.array([r.target_rate for r in ordered], dtype=float)
        self._threshold = urgency * (1.0 + policy.margin)
        remaining = np.array([r.remaining_work for r in ordered], dtype=float)
        caps = np.array([r.speed_cap for r in ordered], dtype=float)
        self._eligible = remaining / caps > policy.protect_completion

    def pick(self, waiting: JobRequest) -> Optional[JobRequest]:
        """First (least-preferred-to-keep) eligible victim for ``waiting``."""
        mask = (
            self._eligible
            & (self._memory >= waiting.memory_mb)
            & (waiting.urgency > self._threshold)
        )
        if not mask.any():
            return None
        return self._candidates[int(np.argmax(mask))]

    def discard(self, victim: JobRequest) -> None:
        """Remove an evicted candidate from future picks."""
        self._eligible[self._slots[victim.job_id]] = False
