"""Long-running job model.

A job has a fixed amount of CPU work (MHz·s), a speed cap (its "maximum
speed permits it to use a single processor"), a memory footprint and a
completion-time goal relative to its submission.  It runs inside one VM,
and the :class:`Job` *is* that VM's record: its placement id
(:attr:`Job.vm_id`), its lifecycle phase, its host while running and its
CPU grant (the fluid rate).  The controller starts, suspends, resumes and
migrates it; progress accrues continuously at the granted rate, so
remaining work at any instant is exact.

A job's numbers live in one row of a :class:`JobTable`: numpy columns
holding every job of a run, so the runner integrates progress, predicts
completions and applies CPU grants in one vector pass over many rows.
:class:`Job` is a view of its row; ``Job(spec)`` makes a one-row table.
The vector passes do, element by element, the IEEE operations of the
scalar methods.  :class:`JobRows` hands many jobs around as rows of one
table, so a reader gathers their columns by one fancy index each.

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
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

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

    Every numeric field must be finite.
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
        # Each chained test fails for NaN and for inf too.  A trace
        # builds thousands of specs, so the tests stay inline.
        inf = math.inf
        if not 0 <= self.submit_time < inf:
            self._reject("submit_time", "finite and non-negative")
        if not 0 < self.total_work < inf:
            self._reject("total_work", "finite and positive")
        if not 0 < self.speed_cap_mhz < inf:
            self._reject("speed_cap_mhz", "finite and positive")
        if not 0 < self.memory_mb < inf:
            self._reject("memory_mb", "finite and positive")
        if not 0 < self.completion_goal < inf:
            self._reject("completion_goal", "finite and positive")
        if not 0 <= self.importance < inf:
            self._reject("importance", "finite and non-negative")

    def _reject(self, name: str, rule: str) -> None:
        raise ConfigurationError(
            f"job {self.job_id}: {name} must be {rule}, got {getattr(self, name)}"
        )

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


#: A job's ``phase`` code is its phase's index here.  The live phases
#: come first, so a code below :data:`LIVE_CODES` is a live job.
PHASES = (
    JobPhase.PENDING,
    JobPhase.RUNNING,
    JobPhase.SUSPENDED,
    JobPhase.COMPLETED,
    JobPhase.CANCELLED,
)
PENDING_CODE, RUNNING_CODE, SUSPENDED_CODE, COMPLETED_CODE, CANCELLED_CODE = range(5)
LIVE_CODES = COMPLETED_CODE


class JobTable:
    """The numeric state of many jobs: one row per job, one numpy column per field.

    Id columns: ``job_ids``, the specs' own job-id strings, and ``vm_ids``,
    each job's VM id (``vm-<job id>``), the string its :class:`Job` view
    holds as :attr:`Job.vm_id`; both are object arrays, so one fancy
    index gathers many rows' ids.
    Static columns: ``submit``, ``cap``, ``goal_len``, ``importance`` and
    ``memory`` (the specs' submit time, speed cap, goal length, importance
    and memory footprint), and ``rank``, each row's position in job-id
    order among the table's rows (ids sort as strings: ``job10000`` <
    ``job9999``).
    State columns: ``remaining``, ``rate``, ``last_update``,
    ``cpu_integral`` and the ``phase`` code (:data:`PHASES`).  Stats
    columns: ``started_at`` and ``completed_at`` (NaN until set),
    ``suspensions``, ``migrations`` and ``work_lost``.

    The table holds no reference to its :class:`Job` views, so dropping
    the views and the table frees them without a cycle collection.
    """

    __slots__ = (
        "job_ids", "vm_ids", "submit", "cap", "goal_len", "importance", "memory",
        "rank", "remaining", "rate", "last_update", "cpu_integral", "phase",
        "started_at", "completed_at", "suspensions", "migrations", "work_lost",
    )

    def __init__(self, specs: Iterable[JobSpec]) -> None:
        specs = list(specs)
        n = len(specs)
        job_ids = [spec.job_id for spec in specs]
        self.job_ids = np.array(job_ids, dtype=object)
        self.vm_ids = np.array([f"vm-{job_id}" for job_id in job_ids], dtype=object)
        # One pass over the specs; the transpose's rows are contiguous.
        static = np.array(
            [
                (
                    s.submit_time, s.total_work, s.speed_cap_mhz,
                    s.completion_goal, s.importance, s.memory_mb,
                )
                for s in specs
            ],
            dtype=float,
        ).reshape(n, 6).T.copy()
        (
            self.submit, self.remaining, self.cap, self.goal_len,
            self.importance, self.memory,
        ) = static
        self.rank = id_rank(job_ids)
        self.last_update = self.submit.copy()
        self.rate = np.zeros(n)
        self.cpu_integral = np.zeros(n)
        self.phase = np.zeros(n, dtype=np.int8)
        self.started_at = np.full(n, math.nan)
        self.completed_at = np.full(n, math.nan)
        self.suspensions = np.zeros(n, dtype=np.int64)
        self.migrations = np.zeros(n, dtype=np.int64)
        self.work_lost = np.zeros(n)

    # ------------------------------------------------------------------
    # Vector passes: each does what the named Job method does per row.
    # They test masks with ``np.count_nonzero``: on the few rows of a
    # small run, ``ndarray.any`` costs more than the arithmetic.
    # ------------------------------------------------------------------
    def advance(self, rows: np.ndarray, t: Seconds) -> None:
        """:meth:`Job.advance_to` ``t`` for every row of ``rows``."""
        last = self.last_update[rows]
        late = t < last
        if np.count_nonzero(late):
            self._raise_late(rows, last, late, t)
        self._advance(rows, last, t)

    def _advance(self, rows: np.ndarray, last: np.ndarray, t: Seconds) -> None:
        remaining = self.remaining[rows]
        done = self.rate[rows] * (t - last)
        # np.minimum and Python's min differ only in which of two equal
        # zeros they return, and either adds nothing to the integral.
        self.cpu_integral[rows] += np.minimum(done, remaining)
        remaining = remaining - done
        # Zeroing every value <= eps also does ``max(x, 0.0)``.
        remaining[remaining <= _WORK_EPS] = 0.0
        self.remaining[rows] = remaining
        self.last_update[rows] = t

    def predicted_completion(self, rows: np.ndarray, t: Seconds) -> np.ndarray:
        """:meth:`Job.predicted_completion` at ``t`` for every row of ``rows``."""
        last = self.last_update[rows]
        late = t < last
        if np.count_nonzero(late):
            job_id = self.job_ids[rows[late.argmax()]]
            raise LifecycleError(f"job {job_id}: prediction time {t} precedes last update")
        rate = self.rate[rows]
        # Unclamped: a negative remainder is <= eps and predicts ``t``,
        # as ``max(x, 0.0)`` would.
        remaining = self.remaining[rows] - rate * (t - last)
        left = np.full(len(rows), math.inf)
        with np.errstate(over="ignore"):  # a tiny rate: inf, as in Python
            np.divide(remaining, rate, out=left, where=~(rate <= 0))
        when = t + left
        when[remaining <= _WORK_EPS] = t
        return when

    def set_rates(self, rows: np.ndarray, mhz: np.ndarray, t: Seconds) -> None:
        """:meth:`Job.set_rate` ``(t, mhz[i])`` for every row ``rows[i]``.

        The rows' checks all run before any row changes; a failing pass
        raises the error :meth:`Job.set_rate` raises for the first
        failing row.
        """
        last = self.last_update[rows]
        late = t < last
        negative = ~(mhz >= 0)  # also NaN
        idle = (mhz > 0) & (self.phase[rows] != RUNNING_CODE)
        failing = late | negative | idle
        if np.count_nonzero(failing):
            i = int(failing.argmax())
            if late[i]:
                self._raise_late(rows, last, late, t)
            job_id = self.job_ids[rows[i]]
            if negative[i]:
                raise LifecycleError(
                    f"job {job_id}: rate must be non-negative, got {mhz.item(i)}"
                )
            raise LifecycleError(
                f"job {job_id}: cannot make progress in phase "
                f"{PHASES[self.phase.item(rows[i])]}"
            )
        self._advance(rows, last, t)
        # Exact: the grants are non-negative and the caps positive, so a
        # tie is two equal positive values.
        self.rate[rows] = np.minimum(mhz, self.cap[rows])

    def _raise_late(
        self, rows: np.ndarray, last: np.ndarray, late: np.ndarray, t: Seconds
    ) -> None:
        i = int(late.argmax())
        raise LifecycleError(
            f"job {self.job_ids[rows[i]]}: advance to {t} precedes last update "
            f"{last.item(i)}"
        )


def id_rank(job_ids: Sequence[str]) -> np.ndarray:
    """Each id's position in string order (``job10000`` < ``job9999``)."""
    order = sorted(range(len(job_ids)), key=job_ids.__getitem__)
    rank = np.empty(len(job_ids), dtype=np.intp)
    rank[order] = np.arange(len(job_ids))
    return rank


_NO_JOBS = JobTable(())


#: The state columns of a row: what :meth:`JobRows.of` copies when it
#: stacks the rows of several tables into one.
_STATE_COLUMNS = (
    "remaining", "rate", "last_update", "cpu_integral", "phase", "started_at",
    "completed_at", "suspensions", "migrations", "work_lost",
)
_table_of = attrgetter("table")
_row_of = attrgetter("row")
_vm_id_of = attrgetter("vm_id")


class JobRows(SequenceABC):
    """Jobs as rows of one :class:`JobTable`: a read-only sequence of :class:`Job` views.

    ``table`` holds the numbers and ids, ``rows`` the jobs' rows in
    sequence order, ``views`` each table row's :class:`Job` (an object
    array indexed by row; only the handle's rows need one) and
    ``vm_rows`` maps a VM id to its job's row.  The runner builds a
    handle over its own table, views and VM map from the live mask, with
    no pass over the jobs, and hands it to ``decide()``.  Readers index
    the columns by ``rows``: :func:`gather`, the population snapshot,
    the request builder and the planner's phase lookups.  ``jobs[i]`` and
    iteration give the views; a slice or :meth:`take` gives a handle.
    """

    __slots__ = ("table", "rows", "views", "vm_rows")

    def __init__(
        self,
        table: JobTable,
        rows: np.ndarray,
        views: np.ndarray,
        vm_rows: Mapping[str, int],
    ) -> None:
        self.table = table
        self.rows = rows
        self.views = views
        self.vm_rows = vm_rows

    @classmethod
    def of(cls, jobs: Iterable[Job]) -> "JobRows":
        """``jobs`` as rows (a handle is returned as it is).

        Jobs that share one table, as every runner list does, are rows of
        that table.  Jobs of several tables (hand-built lists of
        ``Job(spec)``, each a one-row table) are copied into one new
        table, row by row in list order; the views stay the given jobs.
        ``vm_rows`` maps the given jobs' VM ids.
        """
        if isinstance(jobs, JobRows):
            return jobs
        jobs = list(jobs)
        tables = set(map(_table_of, jobs))
        if len(tables) <= 1:
            table = tables.pop() if tables else _NO_JOBS
            rows = np.fromiter(map(_row_of, jobs), np.intp, len(jobs))
        else:
            table = JobTable([job.spec for job in jobs])
            for name in _STATE_COLUMNS:
                getattr(table, name)[:] = [
                    getattr(job.table, name)[job.row] for job in jobs
                ]
            rows = np.arange(len(jobs))
        views = np.empty(len(table.job_ids), dtype=object)
        views[rows] = jobs
        return cls(table, rows, views, dict(zip(map(_vm_id_of, jobs), rows.tolist())))

    def take(self, index) -> "JobRows":
        """The handle's rows at positions ``index``, in that order."""
        return JobRows(self.table, self.rows[index], self.views, self.vm_rows)

    @property
    def job_ids(self) -> np.ndarray:
        """The rows' job ids (an object array of the specs' strings)."""
        return self.table.job_ids[self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        return self.views[self.rows[i]]

    def __iter__(self) -> Iterator[Job]:
        return iter(self.views[self.rows].tolist())


def gather(jobs: Sequence[Job], names: Sequence[str]) -> list[np.ndarray]:
    """The ``names`` columns of ``jobs``' rows, in sequence order.

    One fancy index per column of the :class:`JobRows` handle's table;
    any other job sequence is converted once (:meth:`JobRows.of`).  A
    table's ``rank`` orders its own rows, so only its order counts.
    """
    jobs = JobRows.of(jobs)
    table, rows = jobs.table, jobs.rows
    return [getattr(table, name)[rows] for name in names]


class JobStats:
    """Lifetime statistics gathered for reporting: a read-only view of a row."""

    __slots__ = ("_table", "_row")

    def __init__(self, table: JobTable, row: int) -> None:
        self._table = table
        self._row = row

    @property
    def started_at(self) -> Optional[Seconds]:
        """First start time, ``None`` before it."""
        t = self._table.started_at.item(self._row)
        return None if math.isnan(t) else t

    @property
    def completed_at(self) -> Optional[Seconds]:
        """Completion time, ``None`` before it."""
        t = self._table.completed_at.item(self._row)
        return None if math.isnan(t) else t

    @property
    def suspensions(self) -> int:
        """Times suspended."""
        return self._table.suspensions.item(self._row)

    @property
    def migrations(self) -> int:
        """Times migrated."""
        return self._table.migrations.item(self._row)

    @property
    def work_lost(self) -> Cycles:
        """Work given back by suspensions, MHz·s."""
        return self._table.work_lost.item(self._row)

    @property
    def cpu_time_integral(self) -> Cycles:
        """Work done, MHz·s."""
        return self._table.cpu_integral.item(self._row)


#: Every phase but the terminal ones: ``cancel`` and ``complete`` leave these.
_LIVE_PHASES = (JobPhase.PENDING, JobPhase.RUNNING, JobPhase.SUSPENDED)


class Job:
    """A long-running job: its VM's record, a view of row ``row`` of ``table``.

    ``Job(spec)`` makes a one-row table of its own.  The spec, the VM id
    (the table's string) and the host are Python attributes; every other
    property and mutator reads and writes the row.  Reads return Python scalars
    (``ndarray.item``), so the scalar methods do Python float arithmetic
    and raise Python's errors.
    """

    __slots__ = ("spec", "vm_id", "_node_id", "table", "row")

    def __init__(
        self, spec: JobSpec, table: Optional[JobTable] = None, row: int = 0
    ) -> None:
        if table is None:
            table = JobTable((spec,))
        elif table.job_ids[row] != spec.job_id:
            raise ConfigurationError(
                f"job {spec.job_id}: row {row} of its table holds {table.job_ids[row]}"
            )
        self.spec = spec
        self.vm_id = table.vm_ids[row]
        self._node_id: Optional[str] = None
        self.table = table
        self.row = row

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
        return PHASES[self.table.phase.item(self.row)]

    @property
    def is_incomplete(self) -> bool:
        """Whether the job still demands CPU (not completed or cancelled)."""
        return self.table.phase.item(self.row) < LIVE_CODES

    @property
    def remaining_work(self) -> Cycles:
        """Remaining work in MHz·s as of the last update."""
        return self.table.remaining.item(self.row)

    @property
    def rate(self) -> Mhz:
        """Current fluid progress rate in MHz: the VM's CPU grant."""
        return self.table.rate.item(self.row)

    @property
    def node_id(self) -> Optional[str]:
        """Host node id while RUNNING, else ``None``."""
        return self._node_id

    @property
    def last_update(self) -> Seconds:
        """Time up to which progress has been integrated."""
        return self.table.last_update.item(self.row)

    @property
    def stats(self) -> JobStats:
        """Lifetime statistics, a view of the row."""
        return JobStats(self.table, self.row)

    def predicted_completion(self, at: Optional[Seconds] = None) -> Seconds:
        """Completion time if the current rate held forever (``inf`` at rate 0).

        ``at`` defaults to the last progress-update time.
        """
        table, row = self.table, self.row
        last = table.last_update.item(row)
        rate = table.rate.item(row)
        t = last if at is None else at
        if t < last:
            raise LifecycleError(
                f"job {self.job_id}: prediction time {t} precedes last update"
            )
        remaining = max(table.remaining.item(row) - rate * (t - last), 0.0)
        if remaining <= _WORK_EPS:
            return t
        if rate <= 0:
            return math.inf
        return t + remaining / rate

    # ------------------------------------------------------------------
    # Fluid progress
    # ------------------------------------------------------------------
    def advance_to(self, t: Seconds) -> None:
        """Integrate progress up to time ``t`` at the current rate."""
        table, row = self.table, self.row
        last = table.last_update.item(row)
        if t < last:
            raise LifecycleError(
                f"job {self.job_id}: advance to {t} precedes last update {last}"
            )
        remaining = table.remaining.item(row)
        done = table.rate.item(row) * (t - last)
        table.cpu_integral[row] = table.cpu_integral.item(row) + min(done, remaining)
        remaining = max(remaining - done, 0.0)
        table.remaining[row] = 0.0 if remaining <= _WORK_EPS else remaining
        table.last_update[row] = t

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
        code = self.table.phase.item(self.row)
        if rate > 0 and code != RUNNING_CODE:
            raise LifecycleError(
                f"job {self.job_id}: cannot make progress in phase {PHASES[code]}"
            )
        self.table.rate[self.row] = min(float(rate), self.spec.speed_cap_mhz)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, t: Seconds, node_id: str, rate: Mhz = 0.0) -> None:
        """PENDING or SUSPENDED -> RUNNING on ``node_id`` (first start or resume)."""
        self._require("start", JobPhase.PENDING, JobPhase.SUSPENDED)
        self.advance_to(t)
        table, row = self.table, self.row
        table.phase[row] = RUNNING_CODE
        self._node_id = node_id
        if math.isnan(table.started_at[row]):
            table.started_at[row] = t
        self.set_rate(t, rate)

    def suspend(self, t: Seconds, work_lost: Cycles = 0.0) -> None:
        """Checkpoint and release the node; optionally lose recent progress."""
        self._require("suspend", JobPhase.RUNNING)
        self.set_rate(t, 0.0)
        table, row = self.table, self.row
        table.phase[row] = SUSPENDED_CODE
        self._node_id = None
        if work_lost > 0:
            remaining = table.remaining.item(row)
            lost = min(work_lost, self.spec.total_work - remaining)
            table.remaining[row] = remaining + lost
            table.work_lost[row] = table.work_lost.item(row) + lost
        table.suspensions[row] += 1

    def migrate(self, t: Seconds, node_id: str, rate: Mhz = 0.0) -> None:
        """Move the running job to another node."""
        self._require("migrate", JobPhase.RUNNING)
        if node_id == self._node_id:
            raise LifecycleError(f"job {self.job_id}: migration to its own host")
        self.set_rate(t, 0.0)
        self._node_id = node_id
        self.table.migrations[self.row] += 1
        self.set_rate(t, rate)

    def complete(self, t: Seconds) -> None:
        """Mark the job finished (terminal); remaining work must be zero."""
        self._require("complete", *_LIVE_PHASES)
        self.advance_to(t)
        table, row = self.table, self.row
        remaining = table.remaining.item(row)
        if remaining > _WORK_EPS:
            raise LifecycleError(
                f"job {self.job_id}: completion with {remaining:.1f} MHz·s left"
            )
        table.rate[row] = 0.0
        table.phase[row] = COMPLETED_CODE
        self._node_id = None
        table.completed_at[row] = t

    def cancel(self, t: Seconds) -> None:
        """Abort the job (terminal)."""
        self._require("cancel", *_LIVE_PHASES)
        self.advance_to(t)
        self.table.rate[self.row] = 0.0
        self.table.phase[self.row] = CANCELLED_CODE
        self._node_id = None

    def _require(self, transition: str, *phases: JobPhase) -> None:
        phase = PHASES[self.table.phase.item(self.row)]
        if phase not in phases:
            raise LifecycleError(
                f"job {self.job_id}: cannot {transition} from phase {phase}"
            )

    # ------------------------------------------------------------------
    # SLA outcomes
    # ------------------------------------------------------------------
    @property
    def flow_time(self) -> Optional[Seconds]:
        """Submission-to-completion time, once completed."""
        completed_at = self.stats.completed_at
        if completed_at is None:
            return None
        return completed_at - self.spec.submit_time

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
            f"remaining={self.remaining_work:.0f} MHz·s, rate={self.rate:.0f} MHz)"
        )
