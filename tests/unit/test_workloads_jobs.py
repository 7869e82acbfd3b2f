"""Unit tests for the long-running job model."""

import math

import pytest

from repro.errors import ConfigurationError, LifecycleError
from repro.workloads import JobPhase

from ..conftest import make_job, make_job_spec


class TestJobSpec:
    def test_derived_quantities(self):
        spec = make_job_spec(work=3_000_000.0, cap=3000.0, submit=100.0, goal=4000.0)
        assert spec.min_duration == pytest.approx(1000.0)
        assert spec.absolute_goal == pytest.approx(4100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"job_id": ""},
            {"submit": -1.0},
            {"work": 0.0},
            {"cap": 0.0},
            {"mem": 0.0},
            {"goal": 0.0},
            {"importance": -1.0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            make_job_spec(**kwargs)


class TestFluidProgress:
    def test_progress_accrues_at_rate(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 3000.0)
        job.advance_to(500.0)
        assert job.remaining_work == pytest.approx(3_000_000.0 - 1_500_000.0)

    def test_rate_clamped_to_cap(self):
        job = make_job(cap=3000.0)
        job.start(0.0, "n0", 10_000.0)
        assert job.rate == 3000.0

    def test_remaining_never_negative(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 3000.0)
        job.advance_to(10_000.0)  # far past completion point
        assert job.remaining_work == 0.0

    def test_advance_backwards_rejected(self):
        job = make_job()
        job.start(0.0, "n0", 1000.0)
        job.advance_to(10.0)
        with pytest.raises(LifecycleError):
            job.advance_to(5.0)

    def test_rate_change_integrates_piecewise(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 1000.0)
        job.set_rate(1000.0, 2000.0)  # after 1e6 done
        job.advance_to(1500.0)  # another 1e6
        assert job.remaining_work == pytest.approx(1_000_000.0)

    def test_positive_rate_requires_running(self):
        job = make_job()
        with pytest.raises(LifecycleError):
            job.set_rate(0.0, 100.0)

    @pytest.mark.parametrize("running", [False, True])
    def test_nan_rate_rejected(self, running):
        job = make_job()
        if running:
            job.start(0.0, "n0", 1000.0)
        with pytest.raises(LifecycleError):
            job.set_rate(0.0, math.nan)
        assert job.rate == (1000.0 if running else 0.0)

    def test_predicted_completion(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 1500.0)
        assert job.predicted_completion() == pytest.approx(2000.0)
        assert job.predicted_completion(at=1000.0) == pytest.approx(2000.0)

    def test_predicted_completion_zero_rate_is_inf(self):
        job = make_job()
        assert math.isinf(job.predicted_completion())

    def test_cpu_time_integral_tracks_work_done(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 3000.0)
        job.advance_to(500.0)
        assert job.stats.cpu_time_integral == pytest.approx(1_500_000.0)


class TestLifecycle:
    def test_phases_follow_vm_and_progress(self):
        job = make_job(work=3_000_000.0)
        assert job.phase is JobPhase.PENDING
        job.start(0.0, "n0", 3000.0)
        assert job.phase is JobPhase.RUNNING
        job.suspend(100.0)
        assert job.phase is JobPhase.SUSPENDED
        job.start(200.0, "n1", 3000.0)
        job.advance_to(1200.0)
        job.complete(1200.0)
        assert job.phase is JobPhase.COMPLETED
        assert not job.is_incomplete

    def test_suspend_loses_checkpoint_work(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 3000.0)
        job.suspend(100.0, work_lost=90_000.0)  # 30 s at 3000 MHz
        # 300k done, 90k returned
        assert job.remaining_work == pytest.approx(3_000_000.0 - 300_000.0 + 90_000.0)
        assert job.stats.work_lost == pytest.approx(90_000.0)
        assert job.stats.suspensions == 1

    def test_suspend_loss_capped_at_progress(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 1000.0)
        job.suspend(10.0, work_lost=1e12)
        assert job.remaining_work == pytest.approx(3_000_000.0)

    def test_migrate_counts_and_moves(self):
        job = make_job()
        job.start(0.0, "n0", 1000.0)
        job.migrate(50.0, "n1", 2000.0)
        assert job.node_id == "n1"
        assert job.rate == 2000.0
        assert job.stats.migrations == 1

    def test_complete_requires_zero_remaining(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 3000.0)
        with pytest.raises(LifecycleError):
            job.complete(10.0)

    def test_cancel_is_terminal(self):
        job = make_job()
        job.start(0.0, "n0", 100.0)
        job.cancel(10.0)
        assert job.phase is JobPhase.CANCELLED
        assert job.node_id is None
        assert not job.is_incomplete

    def test_cancel_after_complete_rejected(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 3000.0)
        job.complete(1000.0)
        with pytest.raises(LifecycleError, match="from phase completed"):
            job.cancel(1100.0)
        assert job.phase is JobPhase.COMPLETED
        assert job.stats.completed_at == 1000.0

    def test_complete_after_cancel_rejected(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 3000.0)
        job.cancel(1000.0)
        with pytest.raises(LifecycleError, match="from phase cancelled"):
            job.complete(1000.0)
        assert job.phase is JobPhase.CANCELLED
        assert job.stats.completed_at is None


class TestSlaOutcomes:
    def test_flow_time_and_tardiness_on_time(self):
        job = make_job(work=3_000_000.0, submit=0.0, goal=4000.0)
        job.start(0.0, "n0", 3000.0)
        job.advance_to(1000.0)
        job.complete(1000.0)
        assert job.flow_time == pytest.approx(1000.0)
        assert job.tardiness == 0.0

    def test_tardiness_when_late(self):
        job = make_job(work=3_000_000.0, submit=0.0, goal=500.0)
        job.start(0.0, "n0", 3000.0)
        job.advance_to(1000.0)
        job.complete(1000.0)
        assert job.tardiness == pytest.approx(500.0)

    def test_outcomes_none_while_incomplete(self):
        job = make_job()
        assert job.flow_time is None
        assert job.tardiness is None
