"""Unit tests for summary statistics."""

import math

import pytest

from repro.analysis import (
    MetricAggregate,
    aggregate_metrics,
    job_outcome_stats,
    job_outcomes_by_class,
)
from repro.errors import ConfigurationError

from ..conftest import make_job


def finished_job(job_id: str, rate: float, goal: float = 4000.0,
                 job_class: str = "batch"):
    job = make_job(job_id=job_id, work=3_000_000.0, goal=goal, job_class=job_class)
    job.start(0.0, "n0", rate)
    duration = 3_000_000.0 / min(rate, 3000.0)
    job.advance_to(duration)
    job.complete(duration)
    return job


class TestJobOutcomes:
    def test_counts_and_means(self):
        jobs = [finished_job("a", 3000.0), finished_job("b", 500.0), make_job(job_id="c")]
        stats = job_outcome_stats(jobs)
        assert stats.submitted == 3
        assert stats.completed == 2
        assert stats.on_time == 1  # b finishes at 6000 > goal 4000
        assert stats.completion_fraction == pytest.approx(2 / 3)
        assert stats.mean_tardiness == pytest.approx(1000.0)  # (0 + 2000)/2

    def test_horizon_filters_submissions(self):
        jobs = [make_job(job_id="late", submit=1e6), finished_job("a", 3000.0)]
        stats = job_outcome_stats(jobs, horizon=1000.0)
        assert stats.submitted == 1

    def test_no_completions_yields_nan(self):
        stats = job_outcome_stats([make_job()])
        assert math.isnan(stats.mean_utility)
        assert math.isnan(stats.on_time_fraction)

    def test_by_class_breakdown(self):
        jobs = [
            finished_job("g", 3000.0, job_class="gold"),
            finished_job("s", 500.0, job_class="silver"),
        ]
        by_class = job_outcomes_by_class(jobs)
        assert set(by_class) == {"gold", "silver"}
        assert by_class["gold"].on_time == 1
        assert by_class["silver"].on_time == 0


class TestMetricAggregate:
    def test_basic_statistics(self):
        agg = MetricAggregate.of([1.0, 2.0, 3.0])
        assert agg.n == 3
        assert agg.mean == pytest.approx(2.0)
        assert agg.std == pytest.approx(1.0)  # sample std, ddof=1
        assert agg.min == 1.0
        assert agg.max == 3.0
        # 95% CI via Student-t(2): 2.0 ± 4.3027 * 1/sqrt(3)
        assert agg.ci95_halfwidth == pytest.approx(4.302652 / math.sqrt(3), rel=1e-5)
        assert agg.ci95_lo < agg.mean < agg.ci95_hi

    def test_single_sample_degenerates_to_point(self):
        agg = MetricAggregate.of([3.5])
        assert agg.n == 1
        assert agg.std == 0.0
        assert agg.ci95_lo == agg.mean == agg.ci95_hi == 3.5
        assert agg.ci95_halfwidth == 0.0

    def test_non_finite_samples_dropped(self):
        agg = MetricAggregate.of([1.0, math.nan, 3.0, math.inf])
        assert agg.n == 2
        assert agg.mean == pytest.approx(2.0)

    def test_all_non_finite_yields_nan(self):
        agg = MetricAggregate.of([math.nan, math.nan])
        assert agg.n == 0
        assert math.isnan(agg.mean)
        assert math.isnan(agg.ci95_lo)


class TestAggregateMetrics:
    def test_union_of_keys(self):
        out = aggregate_metrics([{"a": 1.0, "b": 2.0}, {"a": 3.0}])
        assert set(out) == {"a", "b"}
        assert out["a"].n == 2
        assert out["b"].n == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregate_metrics([])
