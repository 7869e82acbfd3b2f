"""Summary statistics for experiment reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..utility.longrunning import JobUtility
from ..workloads.jobs import Job, JobPhase


@dataclass(frozen=True)
class MetricAggregate:
    """One metric aggregated across replications (seeds).

    ``n`` counts the *finite* samples the statistics are computed from;
    non-finite samples (a metric that is NaN for some seed, e.g.
    ``on_time_fraction`` when nothing completed) are dropped before
    aggregation.  With no finite samples every statistic is NaN and
    ``n`` is 0.  ``std`` is the sample standard deviation (ddof=1),
    defined as 0.0 for ``n == 1`` so a single replication degenerates to
    a point estimate: ``ci95_lo == mean == ci95_hi``.

    The fields are the ``repro.result-replicated/v1`` aggregate layout
    (``encode(agg)`` is its payload).

    The 95% confidence interval uses the Student-t critical value with
    ``n - 1`` degrees of freedom, the standard small-sample interval for
    replicated simulation experiments.

    Aggregation is *permutation-invariant*: samples are sorted before
    any floating-point reduction, so the same multiset of per-seed
    values always produces bit-identical statistics regardless of seed
    order.
    """

    n: int
    mean: float
    std: float
    ci95_lo: float
    ci95_hi: float
    min: float
    max: float

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the 95% confidence interval."""
        return (self.ci95_hi - self.ci95_lo) / 2.0

    @classmethod
    def of(cls, values: Iterable[float]) -> "MetricAggregate":
        """Aggregate a sample of per-replication metric values."""
        arr = np.asarray(list(values), dtype=float)
        arr = np.sort(arr[np.isfinite(arr)])  # sort: permutation-invariant
        n = int(arr.size)
        if n == 0:
            nan = math.nan
            return cls(0, nan, nan, nan, nan, nan, nan)
        # Clamp away float-summation drift: the sample mean lies in
        # [min, max] mathematically, but pairwise summation can land one
        # ulp outside for constant samples.
        mean = min(max(float(arr.mean()), float(arr[0])), float(arr[-1]))
        if n == 1:
            return cls(1, mean, 0.0, mean, mean, mean, mean)
        std = float(arr.std(ddof=1))
        half = _t_critical_95(n - 1) * std / math.sqrt(n)
        return cls(
            n=n,
            mean=mean,
            std=std,
            ci95_lo=mean - half,
            ci95_hi=mean + half,
            min=float(arr[0]),
            max=float(arr[-1]),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4g} ± {self.ci95_halfwidth:.2g} (n={self.n})"


def _t_critical_95(dof: int) -> float:
    """Two-sided 95% Student-t critical value for ``dof`` degrees of freedom."""
    from scipy.stats import t as _student_t

    return float(_student_t.ppf(0.975, dof))


def aggregate_metrics(
    summaries: Sequence[Mapping[str, float]],
) -> dict[str, MetricAggregate]:
    """Per-metric :class:`MetricAggregate` over per-replication summaries.

    Metrics are keyed by name; the result covers the union of keys (a
    metric missing from some replication contributes no sample there).
    Raises when ``summaries`` is empty -- aggregating zero replications
    is a caller bug, not an empty table.
    """
    if not summaries:
        raise ConfigurationError("cannot aggregate zero replications")
    keys = sorted({key for summary in summaries for key in summary})
    return {
        key: MetricAggregate.of(
            summary[key] for summary in summaries if key in summary
        )
        for key in keys
    }


@dataclass(frozen=True)
class JobOutcomeStats:
    """SLA outcomes of a (sub)population of jobs."""

    submitted: int
    completed: int
    on_time: int
    mean_utility: float
    mean_flow_time: float
    mean_tardiness: float
    p95_tardiness: float

    @property
    def completion_fraction(self) -> float:
        """Completed / submitted (0 when nothing was submitted)."""
        return self.completed / self.submitted if self.submitted else 0.0

    @property
    def on_time_fraction(self) -> float:
        """On-time completions / completions (nan when none completed)."""
        return self.on_time / self.completed if self.completed else math.nan


def job_outcome_stats(jobs: Iterable[Job], horizon: float | None = None) -> JobOutcomeStats:
    """Aggregate SLA outcomes over completed jobs.

    ``horizon`` restricts "submitted" to jobs that entered the system
    before it (useful because traces may extend past the simulation end).
    """
    utility = JobUtility()
    submitted = 0
    completed: list[Job] = []
    for job in jobs:
        if horizon is not None and job.spec.submit_time >= horizon:
            continue
        submitted += 1
        if job.phase is JobPhase.COMPLETED:
            completed.append(job)
    if not completed:
        return JobOutcomeStats(submitted, 0, 0, math.nan, math.nan, math.nan, math.nan)
    utilities = [utility.achieved(j) for j in completed]
    flows = [j.flow_time for j in completed]
    tard = [j.tardiness for j in completed]
    return JobOutcomeStats(
        submitted=submitted,
        completed=len(completed),
        on_time=sum(1 for x in tard if x == 0.0),
        mean_utility=float(np.mean(utilities)),
        mean_flow_time=float(np.mean(flows)),
        mean_tardiness=float(np.mean(tard)),
        p95_tardiness=float(np.percentile(tard, 95)),
    )


def job_outcomes_by_class(
    jobs: Iterable[Job], horizon: float | None = None
) -> Mapping[str, JobOutcomeStats]:
    """Per-service-class outcome stats (differentiation experiments)."""
    by_class: dict[str, list[Job]] = {}
    for job in jobs:
        by_class.setdefault(job.spec.job_class, []).append(job)
    return {
        cls: job_outcome_stats(members, horizon)
        for cls, members in sorted(by_class.items())
    }
