"""Unit tests for job-population snapshots."""

import math

import pytest

from repro.errors import ModelError
from repro.perf import snapshot_jobs

from ..conftest import make_job, make_population


class TestSnapshot:
    def test_includes_only_submitted_incomplete(self):
        pending = make_job(job_id="pending", submit=0.0)
        future = make_job(job_id="future", submit=100.0)
        done = make_job(job_id="done", submit=0.0, work=3000.0)
        done.start(0.0, "n0", 3000.0)
        done.advance_to(1.0)
        done.complete(1.0)

        pop = snapshot_jobs([pending, future, done], t=50.0)
        assert pop.job_ids == ("pending",)

    def test_projects_progress_to_snapshot_time(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 1000.0)
        pop = snapshot_jobs([job], t=500.0)
        assert pop.remaining[0] == pytest.approx(2_500_000.0)
        # the job object itself is untouched
        assert job.remaining_work == 3_000_000.0

    def test_snapshot_before_last_update_rejected(self):
        job = make_job()
        job.start(0.0, "n0", 100.0)
        job.advance_to(100.0)
        with pytest.raises(ModelError):
            snapshot_jobs([job], t=50.0)

    def test_total_cap(self):
        pop = make_population(0.0, [1e6, 1e6], caps=[3000.0, 1500.0])
        assert pop.total_cap == 4500.0

    def test_empty_population(self):
        pop = snapshot_jobs([], 0.0)
        assert len(pop) == 0
        assert pop.total_cap == 0.0


class TestRequiredRates:
    def test_required_rate_formula(self):
        # one job: R=2e6 at t=0, goal at 4000, goal length 4000
        pop = make_population(0.0, [2_000_000.0])
        # utility 0.5 -> completion at 2000 -> rate 1000
        rates = pop.required_rates(0.5)
        assert rates[0] == pytest.approx(1000.0)

    def test_unachievable_utility_gives_inf(self):
        pop = make_population(0.0, [2_000_000.0])
        # utility 1.0 -> completion now -> impossible
        assert math.isinf(pop.required_rates(1.0)[0])

    def test_completed_job_needs_zero(self):
        pop = make_population(0.0, [0.0])
        assert pop.required_rates(0.5)[0] == 0.0

    def test_rates_increase_with_utility(self):
        pop = make_population(0.0, [2_000_000.0])
        r1 = pop.required_rates(0.2)[0]
        r2 = pop.required_rates(0.6)[0]
        assert r2 > r1


class TestMaxAchievableUtility:
    def test_formula(self):
        # R/c = 1000 s, goal at 4000 -> u_max = 3000/4000
        pop = make_population(0.0, [3_000_000.0])
        assert pop.max_achievable_utility()[0] == pytest.approx(0.75)

    def test_negative_when_goal_unreachable(self):
        pop = make_population(0.0, [3_000_000.0], goals_abs=[500.0])
        assert pop.max_achievable_utility()[0] < 0
