"""Unit tests for the VM lifecycle.

A job's VM is the :class:`~repro.workloads.Job` itself (``vm_id``,
``phase``, ``node_id``, ``rate``); a web instance's VM is its node's CPU
grant in :class:`~repro.workloads.TransactionalApp`.
"""

import pytest

from repro.errors import ConfigurationError, LifecycleError
from repro.workloads import ConstantProfile, JobPhase, TransactionalApp

from ..conftest import make_job, make_job_spec
from .test_workloads_transactional import make_spec as make_app_spec


class TestLifecycle:
    def test_initial_state_pending(self):
        job = make_job(job_id="job0")
        assert job.vm_id == "vm-job0"
        assert job.phase is JobPhase.PENDING
        assert job.node_id is None
        assert job.rate == 0.0

    def test_start_places_on_node(self):
        job = make_job()
        job.start(0.0, "n0", 1500.0)
        assert job.phase is JobPhase.RUNNING
        assert job.node_id == "n0"
        assert job.rate == 1500.0
        app = TransactionalApp(make_app_spec(), ConstantProfile(1.0))
        app.start_instance(0.0, "n0", 1500.0)
        assert app.instance_nodes == ["n0"]
        assert app.total_allocation == 1500.0

    def test_suspend_releases_node(self):
        job = make_job()
        job.start(0.0, "n0", 1500.0)
        job.suspend(10.0)
        assert job.phase is JobPhase.SUSPENDED
        assert job.node_id is None
        assert job.rate == 0.0
        assert job.stats.suspensions == 1

    def test_resume_via_start_on_other_node(self):
        job = make_job()
        job.start(0.0, "n0")
        job.suspend(10.0)
        job.start(20.0, "n1", 900.0)
        assert job.phase is JobPhase.RUNNING
        assert job.node_id == "n1"
        assert job.rate == 900.0
        assert job.stats.started_at == 0.0

    def test_migrate_moves_host(self):
        job = make_job()
        job.start(0.0, "n0", 1000.0)
        job.migrate(10.0, "n1", 2000.0)
        assert job.node_id == "n1"
        assert job.rate == 2000.0
        assert job.stats.migrations == 1

    def test_migrate_to_same_host_rejected(self):
        job = make_job()
        job.start(0.0, "n0")
        with pytest.raises(LifecycleError, match="own host"):
            job.migrate(10.0, "n0")
        assert job.node_id == "n0"
        assert job.stats.migrations == 0

    def test_stop_is_terminal(self):
        # A job's VM stops when the job is cancelled or completes; no
        # transition leaves either terminal phase.
        job = make_job()
        job.start(0.0, "n0")
        job.cancel(10.0)
        assert job.phase is JobPhase.CANCELLED
        assert job.node_id is None
        with pytest.raises(LifecycleError):
            job.start(20.0, "n1")
        with pytest.raises(LifecycleError):
            job.cancel(20.0)
        with pytest.raises(LifecycleError):
            job.complete(20.0)
        app = TransactionalApp(make_app_spec(), ConstantProfile(1.0))
        app.start_instance(0.0, "n0")
        app.start_instance(0.0, "n1")
        app.stop_instance("n0")
        with pytest.raises(LifecycleError):
            app.stop_instance("n0")
        with pytest.raises(LifecycleError):
            app.set_instance_allocation("n0", 100.0)

    def test_stop_from_pending_allowed(self):
        job = make_job()
        job.cancel(0.0)
        assert job.phase is JobPhase.CANCELLED
        assert job.node_id is None

    def test_start_while_running_rejected(self):
        job = make_job()
        job.start(0.0, "n0")
        with pytest.raises(LifecycleError):
            job.start(10.0, "n1")
        assert job.node_id == "n0"

    def test_suspend_while_pending_rejected(self):
        job = make_job()
        with pytest.raises(LifecycleError):
            job.suspend(0.0)
        assert job.phase is JobPhase.PENDING

    def test_migrate_while_suspended_rejected(self):
        job = make_job()
        job.start(0.0, "n0")
        job.suspend(10.0)
        with pytest.raises(LifecycleError):
            job.migrate(20.0, "n1")
        assert job.phase is JobPhase.SUSPENDED


class TestAllocation:
    def test_set_allocation_requires_running(self):
        job = make_job()
        with pytest.raises(LifecycleError):
            job.set_rate(0.0, 100.0)
        job.start(0.0, "n0", 100.0)
        job.suspend(10.0)
        with pytest.raises(LifecycleError):
            job.set_rate(20.0, 100.0)
        job.set_rate(20.0, 0.0)  # a zero grant needs no host
        assert job.rate == 0.0

    def test_negative_allocation_rejected(self):
        job = make_job()
        job.start(0.0, "n0")
        with pytest.raises(LifecycleError):
            job.set_rate(10.0, -1.0)
        app = TransactionalApp(make_app_spec(), ConstantProfile(1.0))
        with pytest.raises(LifecycleError):
            app.start_instance(0.0, "n0", -1.0)
        app.start_instance(0.0, "n0", 100.0)
        with pytest.raises(LifecycleError):
            app.set_instance_allocation("n0", -1.0)
        assert app.total_allocation == 100.0

    def test_nonpositive_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            make_job_spec(mem=0.0)
        with pytest.raises(ConfigurationError):
            make_app_spec(instance_memory_mb=0.0)
