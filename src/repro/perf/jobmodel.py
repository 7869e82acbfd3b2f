"""Vectorized job-population snapshots and completion predictions.

The controller's hot path (hypothetical-utility equalization, Section 2 of
the paper) operates on the whole incomplete-job population every control
cycle.  To keep that O(n) with numpy instead of a Python loop per job,
this module extracts the population state into a column-oriented
:class:`JobPopulation` snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..errors import ModelError
from ..types import Seconds
from ..workloads.jobs import Job


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
    """

    time: Seconds
    job_ids: tuple[str, ...]
    remaining: np.ndarray
    caps: np.ndarray
    goals_abs: np.ndarray
    goal_lengths: np.ndarray
    importance: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.job_ids)
        for name in ("remaining", "caps", "goals_abs", "goal_lengths", "importance"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ModelError(f"JobPopulation.{name} has shape {arr.shape}, want ({n},)")
        if n:
            if np.any(self.remaining < 0):
                raise ModelError("negative remaining work in population snapshot")
            if np.any(self.caps <= 0):
                raise ModelError("non-positive speed cap in population snapshot")
            if np.any(self.goal_lengths <= 0):
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
    and not-yet-submitted jobs are excluded.

    When ``included`` is given, the :class:`Job` objects that made it
    into the snapshot are appended to it, in snapshot (column) order --
    callers that need the jobs alongside the columns (the controller's
    request builder) then avoid a second filtered pass keyed by id.
    """
    ids: list[str] = []
    remaining: list[float] = []
    caps: list[float] = []
    goals_abs: list[float] = []
    goal_lengths: list[float] = []
    importance: list[float] = []
    # Bound the append methods once: this loop visits every job every
    # control cycle and is the controller's main O(population) pass.
    add_id = ids.append
    add_rem = remaining.append
    add_cap = caps.append
    add_goal = goals_abs.append
    add_len = goal_lengths.append
    add_imp = importance.append
    add_job = included.append if included is not None else None
    for job in jobs:
        spec = job.spec
        if spec.submit_time > t or not job.is_incomplete:
            continue
        # Private-field reads (the public properties are trivial
        # accessors): this loop touches every job every control cycle
        # and the attribute-protocol overhead is measurable at scale.
        last_update = job._last_update
        if t < last_update:
            raise ModelError(
                f"job {job.job_id}: snapshot time {t} precedes last update "
                f"{last_update}"
            )
        rem = max(job._remaining - job._rate * (t - last_update), 0.0)
        if add_job is not None:
            add_job(job)
        add_id(spec.job_id)
        add_rem(rem)
        add_cap(spec.speed_cap_mhz)
        add_goal(spec.absolute_goal)
        add_len(spec.completion_goal)
        add_imp(spec.importance)
    return JobPopulation(
        time=t,
        job_ids=tuple(ids),
        remaining=np.asarray(remaining, dtype=float),
        caps=np.asarray(caps, dtype=float),
        goals_abs=np.asarray(goals_abs, dtype=float),
        goal_lengths=np.asarray(goal_lengths, dtype=float),
        importance=np.asarray(importance, dtype=float),
    )
