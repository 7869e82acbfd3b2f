"""Vectorized job-population snapshots.

The controller's hot path (hypothetical-utility equalization, Section 2 of
the paper) operates on the whole incomplete-job population every control
cycle.  To keep that O(n) with numpy instead of a Python loop per job,
this module extracts the population state into a column-oriented
:class:`JobPopulation` snapshot, gathered from the jobs'
:class:`~repro.workloads.jobs.JobTable` rows by one fancy index per
column of a :class:`~repro.workloads.jobs.JobRows` handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..errors import ModelError
from ..types import Seconds
from ..workloads.jobs import LIVE_CODES, Job, JobRows, gather


@dataclass(frozen=True)
class JobPopulation:
    """Column-oriented snapshot of the incomplete jobs at one instant.

    Attributes
    ----------
    time:
        Snapshot time; all columns are consistent as of this instant.
    job_ids:
        Job identifiers (parallel to all arrays).
    remaining:
        Remaining work per job, MHz·s.
    caps:
        Per-job speed caps, MHz.
    goals_abs:
        Absolute SLA deadlines (submit + goal), seconds.
    goal_lengths:
        SLA goal lengths (relative goals), seconds.
    importance:
        Utility aggregation weights.
    jobs:
        The snapshot's jobs as table rows, in column order (set by
        :func:`snapshot_jobs`; ``None`` for a population built from
        arrays).
    """

    time: Seconds
    job_ids: tuple[str, ...]
    remaining: np.ndarray
    caps: np.ndarray
    goals_abs: np.ndarray
    goal_lengths: np.ndarray
    importance: np.ndarray
    jobs: Optional[JobRows] = None

    def __post_init__(self) -> None:
        n = len(self.job_ids)
        for name in ("remaining", "caps", "goals_abs", "goal_lengths", "importance"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ModelError(f"JobPopulation.{name} has shape {arr.shape}, want ({n},)")
        # np.count_nonzero, not np.any: two snapshots a cycle build one,
        # and on a few jobs np.any's dispatch costs more than the test.
        if np.count_nonzero(self.remaining < 0):
            raise ModelError("negative remaining work in population snapshot")
        if np.count_nonzero(self.caps <= 0):
            raise ModelError("non-positive speed cap in population snapshot")
        if np.count_nonzero(self.goal_lengths <= 0):
            raise ModelError("non-positive goal length in population snapshot")

    def __len__(self) -> int:
        return len(self.job_ids)

    @property
    def total_cap(self) -> float:
        """Sum of speed caps: the population's max-utility CPU demand."""
        return float(self.caps.sum())

    def max_achievable_utility(self) -> np.ndarray:
        """Per-job utility ceiling: run at the cap from now on.

        ``u_max_j = (G_j − t − R_j/c_j) / T_j`` -- 1 for a job that could
        finish instantly, 0 for one that exactly meets its goal at full
        speed, negative when the goal is already unreachable.
        """
        if len(self) == 0:
            return np.empty(0, dtype=float)
        best_completion = self.time + self.remaining / self.caps
        return (self.goals_abs - best_completion) / self.goal_lengths

    def required_rates(self, utility: float) -> np.ndarray:
        """Per-job CPU rate needed to achieve ``utility``, MHz.

        ``x_j(u) = R_j / (G_j − u·T_j − t)``; ``inf`` where the implied
        completion time is already in the past (no finite rate suffices),
        0 where the job has no work left.
        """
        if len(self) == 0:
            return np.empty(0, dtype=float)
        slack = self.goals_abs - utility * self.goal_lengths - self.time
        with np.errstate(divide="ignore"):
            rates = np.where(slack > 0, self.remaining / np.maximum(slack, 1e-300), np.inf)
        return np.where(self.remaining <= 0, 0.0, rates)


def snapshot_jobs(
    jobs: Iterable[Job], t: Seconds, *, included: Optional[list[Job]] = None
) -> JobPopulation:
    """Build a :class:`JobPopulation` of the *incomplete, submitted* jobs.

    Jobs are advanced conceptually to ``t`` (progress since their last
    update is accounted for without mutating them).  Completed, cancelled
    and not-yet-submitted jobs are excluded.  The columns are one fancy
    index each of the :class:`~repro.workloads.jobs.JobRows` handle's
    table (any other job sequence is converted once); the projection
    ``max(remaining - rate * (t - last_update), 0)`` is the scalar
    arithmetic, element by element.

    The kept rows come back as the population's ``jobs`` handle, in
    column order.  When ``included`` is given, their :class:`Job` views
    are appended to it too.
    """
    jobs = JobRows.of(jobs)
    columns = gather(jobs, _SNAPSHOT_COLUMNS)
    submit, phase = columns[0], columns[1]
    kept = ~(submit > t) & (phase < LIVE_CODES)
    if np.count_nonzero(kept) < len(jobs):
        index = kept.nonzero()[0]
        jobs = jobs.take(index)
        columns = [column[index] for column in columns]
    submit, _, last_update, remaining, rate, caps, goal_lengths, importance = columns
    job_ids = jobs.job_ids
    late = t < last_update
    if np.count_nonzero(late):
        i = int(late.argmax())
        raise ModelError(
            f"job {job_ids[i]}: snapshot time {t} precedes last update "
            f"{last_update.item(i)}"
        )
    remaining = remaining - rate * (t - last_update)
    remaining[remaining < 0.0] = 0.0  # max(x, 0.0), signed zeros included
    if included is not None:
        included.extend(jobs)
    return JobPopulation(
        time=t,
        job_ids=tuple(job_ids.tolist()),
        remaining=remaining,
        caps=caps,
        goals_abs=submit + goal_lengths,
        goal_lengths=goal_lengths,
        importance=importance,
        jobs=jobs,
    )


#: The table columns :func:`snapshot_jobs` gathers, in unpacking order.
_SNAPSHOT_COLUMNS = (
    "submit", "phase", "last_update", "remaining", "rate", "cap", "goal_len",
    "importance",
)
