"""Unit tests for placement diffing into action plans."""

import pytest

from repro.cluster import (
    CpuGrants,
    MigrateVm,
    Placement,
    PlacementEntry,
    ResumeVm,
    StartVm,
    StopVm,
    SuspendVm,
)
from repro.core import plan_actions
from repro.errors import PlacementError
from repro.types import WorkloadKind
from repro.workloads import JobPhase

from ..conftest import make_job_in


def entry(vm: str, node: str, cpu: float = 1000.0,
          kind: WorkloadKind = WorkloadKind.LONG_RUNNING) -> PlacementEntry:
    return PlacementEntry(vm_id=vm, node_id=node, cpu_mhz=cpu, memory_mb=1200.0,
                          kind=kind)


class TestArrivals:
    def test_pending_vm_gets_start(self):
        actions = plan_actions(Placement(), Placement([entry("vm-a", "n0")]),
                               [make_job_in(JobPhase.PENDING, job_id="a")])
        assert actions == [StartVm(vm_id="vm-a", node_id="n0", cpu_mhz=1000.0)]

    def test_unknown_vm_defaults_to_start(self):
        # A VM with no job -- a new web instance -- starts.
        actions = plan_actions(Placement(), Placement([entry("a", "n0")]), ())
        assert isinstance(actions[0], StartVm)

    def test_suspended_vm_gets_resume(self):
        actions = plan_actions(Placement(), Placement([entry("vm-a", "n2")]),
                               [make_job_in(JobPhase.SUSPENDED, job_id="a")])
        assert actions == [ResumeVm(vm_id="vm-a", node_id="n2", cpu_mhz=1000.0)]

    def test_stopped_vm_in_desired_rejected(self):
        # A job's VM stops when it completes or is cancelled; RUNNING is
        # rejected too, since a running VM is in the previous placement.
        for phase in (JobPhase.CANCELLED, JobPhase.COMPLETED, JobPhase.RUNNING):
            with pytest.raises(PlacementError):
                plan_actions(Placement(), Placement([entry("vm-a", "n0")]),
                             [make_job_in(phase, job_id="a")])


class TestDepartures:
    def test_job_leaving_gets_suspend(self):
        actions = plan_actions(Placement([entry("a", "n0")]), Placement(), ())
        assert actions == [SuspendVm(vm_id="a")]

    def test_web_instance_leaving_gets_stop(self):
        prev = Placement([entry("tx:web@n0", "n0", kind=WorkloadKind.TRANSACTIONAL)])
        actions = plan_actions(prev, Placement(), ())
        assert actions == [StopVm(vm_id="tx:web@n0")]


class TestChanges:
    def test_node_change_is_migration(self):
        prev = Placement([entry("a", "n0", 800.0)])
        new = Placement([entry("a", "n1", 1200.0)])
        actions = plan_actions(prev, new, ())
        assert actions == [
            MigrateVm(vm_id="a", src_node_id="n0", dst_node_id="n1", cpu_mhz=1200.0)
        ]

    def test_cpu_change_is_adjust(self):
        prev = Placement([entry("a", "n0", 800.0)])
        new = Placement([entry("a", "n0", 1200.0)])
        actions = plan_actions(prev, new, ())
        assert actions == [CpuGrants(vm_ids=("a",), cpu_mhz=(1200.0,))]

    def test_cpu_changes_are_one_last_record(self):
        prev = Placement([entry("b", "n0", 800.0), entry("a", "n1", 500.0)])
        new = Placement([
            entry("b", "n0", 900.0), entry("a", "n1", 600.0),
            entry("vm-c", "n2"),
        ])
        actions = plan_actions(
            prev, new, [make_job_in(JobPhase.PENDING, job_id="c")]
        )
        assert actions == [
            StartVm(vm_id="vm-c", node_id="n2", cpu_mhz=1000.0),
            CpuGrants(vm_ids=("a", "b"), cpu_mhz=(600.0, 900.0)),
        ]

    def test_unchanged_entry_produces_nothing(self):
        placement = Placement([entry("a", "n0", 800.0)])
        assert plan_actions(placement, placement.copy(), ()) == []

    def test_tiny_cpu_drift_ignored(self):
        prev = Placement([entry("a", "n0", 800.0)])
        new = Placement([entry("a", "n0", 800.0 + 1e-9)])
        assert plan_actions(prev, new, ()) == []


class TestOrdering:
    def test_frees_come_before_claims(self):
        prev = Placement([
            entry("leaving", "n0"),
            entry("tx:web@n1", "n1", kind=WorkloadKind.TRANSACTIONAL),
        ])
        new = Placement([entry("vm-arriving", "n0")])
        actions = plan_actions(
            prev, new, [make_job_in(JobPhase.PENDING, job_id="arriving")]
        )
        kinds = [type(a).__name__ for a in actions]
        assert kinds == ["StopVm", "SuspendVm", "StartVm"]

    def test_deterministic_order_within_category(self):
        new = Placement([entry("b", "n0"), entry("a", "n1")])
        actions = plan_actions(Placement(), new, ())
        assert [a.vm_id for a in actions] == ["a", "b"]
