"""Long-running job model.

A job has a fixed amount of CPU work (MHz·s), a speed cap (its "maximum
speed permits it to use a single processor"), a memory footprint and a
completion-time goal relative to its submission.  It runs inside one VM,
and the :class:`Job` *is* that VM's record: its placement id
(:attr:`Job.vm_id`), its lifecycle phase, its host while running and its
CPU grant (the fluid rate).  The controller starts, suspends, resumes and
migrates it; progress accrues continuously at the granted rate, so
remaining work at any instant is exact.

The lifecycle::

        PENDING ---start---> RUNNING ---suspend---> SUSPENDED
                             RUNNING <---start----- SUSPENDED   (resume)
                             RUNNING ---migrate---> RUNNING     (new host)
        any live phase ---cancel---> CANCELLED
        any live phase --complete--> COMPLETED

COMPLETED and CANCELLED are terminal: every transition out of them,
another ``cancel`` or ``complete`` included, raises
:class:`~repro.errors.LifecycleError`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigurationError, LifecycleError
from ..types import Cycles, Megabytes, Mhz, Seconds

#: Tolerance (cycles) below which remaining work counts as zero.
_WORK_EPS = 1e-6


@dataclass(frozen=True, slots=True)
class JobSpec:
    """Immutable description of one long-running job.

    Attributes
    ----------
    job_id:
        Unique identifier.
    submit_time:
        Simulated time at which the job enters the system.
    total_work:
        CPU work in MHz·s; at ``speed_cap_mhz`` the job needs
        ``total_work / speed_cap_mhz`` seconds.
    speed_cap_mhz:
        Maximum CPU rate the job can consume (one processor in the paper).
    memory_mb:
        VM memory footprint while running.
    completion_goal:
        SLA goal: target flow time (seconds after submission).
    job_class:
        Service-class label (for differentiation experiments).
    importance:
        Weight used when aggregating utility across jobs (>= 0).
    """

    job_id: str
    submit_time: Seconds
    total_work: Cycles
    speed_cap_mhz: Mhz
    memory_mb: Megabytes
    completion_goal: Seconds
    job_class: str = "batch"
    importance: float = 1.0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("job_id must be non-empty")
        if self.submit_time < 0:
            raise ConfigurationError(f"job {self.job_id}: negative submit_time")
        if self.total_work <= 0:
            raise ConfigurationError(f"job {self.job_id}: total_work must be positive")
        if self.speed_cap_mhz <= 0:
            raise ConfigurationError(f"job {self.job_id}: speed cap must be positive")
        if self.memory_mb <= 0:
            raise ConfigurationError(f"job {self.job_id}: memory must be positive")
        if self.completion_goal <= 0:
            raise ConfigurationError(f"job {self.job_id}: goal must be positive")
        if self.importance < 0:
            raise ConfigurationError(f"job {self.job_id}: negative importance")

    @property
    def min_duration(self) -> Seconds:
        """Execution time at full speed with no interruption."""
        return self.total_work / self.speed_cap_mhz

    @property
    def absolute_goal(self) -> Seconds:
        """The SLA completion deadline on the simulated-time axis."""
        return self.submit_time + self.completion_goal


class JobPhase(enum.Enum):
    """Externally visible job state."""

    PENDING = "pending"
    RUNNING = "running"
    SUSPENDED = "suspended"
    COMPLETED = "completed"
    CANCELLED = "cancelled"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class JobStats:
    """Lifetime statistics gathered for reporting."""

    started_at: Optional[Seconds] = None
    completed_at: Optional[Seconds] = None
    suspensions: int = 0
    migrations: int = 0
    work_lost: Cycles = 0.0
    cpu_time_integral: Cycles = field(default=0.0)


#: Every phase but the terminal ones: ``cancel`` and ``complete`` leave these.
_LIVE_PHASES = (JobPhase.PENDING, JobPhase.RUNNING, JobPhase.SUSPENDED)


class Job:
    """Runtime state of a long-running job: its VM's record plus fluid progress."""

    __slots__ = (
        "spec", "vm_id", "_phase", "_node_id", "_remaining", "_rate",
        "_last_update", "stats",
    )

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.vm_id = f"vm-{spec.job_id}"
        self._phase = JobPhase.PENDING
        self._node_id: Optional[str] = None
        self._remaining: Cycles = spec.total_work
        self._rate: Mhz = 0.0
        self._last_update: Seconds = spec.submit_time
        self.stats = JobStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def job_id(self) -> str:
        """The spec's job id."""
        return self.spec.job_id

    @property
    def phase(self) -> JobPhase:
        """Current lifecycle phase."""
        return self._phase

    @property
    def is_incomplete(self) -> bool:
        """Whether the job still demands CPU (not completed or cancelled).

        Checked for every job on every control cycle (population
        snapshots), so it tests the stored phase against a module-level
        tuple: reading ``JobPhase.X`` off the enum class costs more than
        the whole membership test.
        """
        return self._phase in _LIVE_PHASES

    @property
    def remaining_work(self) -> Cycles:
        """Remaining work in MHz·s as of the last update."""
        return self._remaining

    @property
    def rate(self) -> Mhz:
        """Current fluid progress rate in MHz: the VM's CPU grant."""
        return self._rate

    @property
    def node_id(self) -> Optional[str]:
        """Host node id while RUNNING, else ``None``."""
        return self._node_id

    @property
    def last_update(self) -> Seconds:
        """Time up to which progress has been integrated."""
        return self._last_update

    def predicted_completion(self, at: Optional[Seconds] = None) -> Seconds:
        """Completion time if the current rate held forever (``inf`` at rate 0).

        ``at`` defaults to the last progress-update time.
        """
        t = self._last_update if at is None else at
        if t < self._last_update:
            raise LifecycleError(
                f"job {self.job_id}: prediction time {t} precedes last update"
            )
        remaining = max(self._remaining - self._rate * (t - self._last_update), 0.0)
        if remaining <= _WORK_EPS:
            return t
        if self._rate <= 0:
            return math.inf
        return t + remaining / self._rate

    # ------------------------------------------------------------------
    # Fluid progress
    # ------------------------------------------------------------------
    def advance_to(self, t: Seconds) -> None:
        """Integrate progress up to time ``t`` at the current rate."""
        if t < self._last_update:
            raise LifecycleError(
                f"job {self.job_id}: advance to {t} precedes last update "
                f"{self._last_update}"
            )
        dt = t - self._last_update
        done = self._rate * dt
        self.stats.cpu_time_integral += min(done, self._remaining)
        self._remaining = max(self._remaining - done, 0.0)
        if self._remaining <= _WORK_EPS:
            self._remaining = 0.0
        self._last_update = t

    def set_rate(self, t: Seconds, rate: Mhz) -> None:
        """Advance progress to ``t`` and switch to a new fluid rate.

        The rate is clamped to the job's speed cap; any positive rate
        requires the RUNNING phase, and a negative or NaN rate is
        rejected.
        """
        self.advance_to(t)
        if not rate >= 0:  # also rejects NaN
            raise LifecycleError(
                f"job {self.job_id}: rate must be non-negative, got {rate}"
            )
        if rate > 0 and self._phase is not JobPhase.RUNNING:
            raise LifecycleError(
                f"job {self.job_id}: cannot make progress in phase {self._phase}"
            )
        self._rate = min(float(rate), self.spec.speed_cap_mhz)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, t: Seconds, node_id: str, rate: Mhz = 0.0) -> None:
        """PENDING or SUSPENDED -> RUNNING on ``node_id`` (first start or resume)."""
        self._require("start", JobPhase.PENDING, JobPhase.SUSPENDED)
        self.advance_to(t)
        self._phase = JobPhase.RUNNING
        self._node_id = node_id
        if self.stats.started_at is None:
            self.stats.started_at = t
        self.set_rate(t, rate)

    def suspend(self, t: Seconds, work_lost: Cycles = 0.0) -> None:
        """Checkpoint and release the node; optionally lose recent progress."""
        self._require("suspend", JobPhase.RUNNING)
        self.set_rate(t, 0.0)
        self._phase = JobPhase.SUSPENDED
        self._node_id = None
        if work_lost > 0:
            lost = min(work_lost, self.spec.total_work - self._remaining)
            self._remaining += lost
            self.stats.work_lost += lost
        self.stats.suspensions += 1

    def migrate(self, t: Seconds, node_id: str, rate: Mhz = 0.0) -> None:
        """Move the running job to another node."""
        self._require("migrate", JobPhase.RUNNING)
        if node_id == self._node_id:
            raise LifecycleError(f"job {self.job_id}: migration to its own host")
        self.set_rate(t, 0.0)
        self._node_id = node_id
        self.stats.migrations += 1
        self.set_rate(t, rate)

    def complete(self, t: Seconds) -> None:
        """Mark the job finished (terminal); remaining work must be zero."""
        self._require("complete", *_LIVE_PHASES)
        self.advance_to(t)
        if self._remaining > _WORK_EPS:
            raise LifecycleError(
                f"job {self.job_id}: completion with {self._remaining:.1f} MHz·s left"
            )
        self._rate = 0.0
        self._phase = JobPhase.COMPLETED
        self._node_id = None
        self.stats.completed_at = t

    def cancel(self, t: Seconds) -> None:
        """Abort the job (terminal)."""
        self._require("cancel", *_LIVE_PHASES)
        self.advance_to(t)
        self._rate = 0.0
        self._phase = JobPhase.CANCELLED
        self._node_id = None

    def _require(self, transition: str, *phases: JobPhase) -> None:
        if self._phase not in phases:
            raise LifecycleError(
                f"job {self.job_id}: cannot {transition} from phase {self._phase}"
            )

    # ------------------------------------------------------------------
    # SLA outcomes
    # ------------------------------------------------------------------
    @property
    def flow_time(self) -> Optional[Seconds]:
        """Submission-to-completion time, once completed."""
        if self.stats.completed_at is None:
            return None
        return self.stats.completed_at - self.spec.submit_time

    @property
    def tardiness(self) -> Optional[Seconds]:
        """How far past the SLA goal the job finished (0 when on time)."""
        flow = self.flow_time
        if flow is None:
            return None
        return max(flow - self.spec.completion_goal, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job({self.job_id}, {self.phase.value}, "
            f"remaining={self._remaining:.0f} MHz·s, rate={self._rate:.0f} MHz)"
        )
