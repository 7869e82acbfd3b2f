"""Unit tests for placement diffing into action plans."""

import pytest

from repro.cluster import (
    AdjustCpu,
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


def entry(vm: str, node: str, cpu: float = 1000.0,
          kind: WorkloadKind = WorkloadKind.LONG_RUNNING) -> PlacementEntry:
    return PlacementEntry(vm_id=vm, node_id=node, cpu_mhz=cpu, memory_mb=1200.0,
                          kind=kind)


class TestArrivals:
    def test_pending_vm_gets_start(self):
        actions = plan_actions(Placement(), Placement([entry("a", "n0")]),
                               {"a": JobPhase.PENDING})
        assert actions == [StartVm(vm_id="a", node_id="n0", cpu_mhz=1000.0)]

    def test_unknown_vm_defaults_to_start(self):
        actions = plan_actions(Placement(), Placement([entry("a", "n0")]), {})
        assert isinstance(actions[0], StartVm)

    def test_suspended_vm_gets_resume(self):
        actions = plan_actions(Placement(), Placement([entry("a", "n2")]),
                               {"a": JobPhase.SUSPENDED})
        assert actions == [ResumeVm(vm_id="a", node_id="n2", cpu_mhz=1000.0)]

    def test_stopped_vm_in_desired_rejected(self):
        # A job's VM stops when it completes or is cancelled; RUNNING is
        # rejected too, since a running VM is in the previous placement.
        for phase in (JobPhase.CANCELLED, JobPhase.COMPLETED, JobPhase.RUNNING):
            with pytest.raises(PlacementError):
                plan_actions(Placement(), Placement([entry("a", "n0")]),
                             {"a": phase})


class TestDepartures:
    def test_job_leaving_gets_suspend(self):
        actions = plan_actions(Placement([entry("a", "n0")]), Placement(),
                               {"a": JobPhase.RUNNING})
        assert actions == [SuspendVm(vm_id="a")]

    def test_web_instance_leaving_gets_stop(self):
        prev = Placement([entry("tx:web@n0", "n0", kind=WorkloadKind.TRANSACTIONAL)])
        actions = plan_actions(prev, Placement(), {"tx:web@n0": JobPhase.RUNNING})
        assert actions == [StopVm(vm_id="tx:web@n0")]


class TestChanges:
    def test_node_change_is_migration(self):
        prev = Placement([entry("a", "n0", 800.0)])
        new = Placement([entry("a", "n1", 1200.0)])
        actions = plan_actions(prev, new, {"a": JobPhase.RUNNING})
        assert actions == [
            MigrateVm(vm_id="a", src_node_id="n0", dst_node_id="n1", cpu_mhz=1200.0)
        ]

    def test_cpu_change_is_adjust(self):
        prev = Placement([entry("a", "n0", 800.0)])
        new = Placement([entry("a", "n0", 1200.0)])
        actions = plan_actions(prev, new, {"a": JobPhase.RUNNING})
        assert actions == [AdjustCpu(vm_id="a", cpu_mhz=1200.0)]

    def test_unchanged_entry_produces_nothing(self):
        placement = Placement([entry("a", "n0", 800.0)])
        assert plan_actions(placement, placement.copy(), {"a": JobPhase.RUNNING}) == []

    def test_tiny_cpu_drift_ignored(self):
        prev = Placement([entry("a", "n0", 800.0)])
        new = Placement([entry("a", "n0", 800.0 + 1e-9)])
        assert plan_actions(prev, new, {"a": JobPhase.RUNNING}) == []


class TestOrdering:
    def test_frees_come_before_claims(self):
        prev = Placement([
            entry("leaving", "n0"),
            entry("tx:web@n1", "n1", kind=WorkloadKind.TRANSACTIONAL),
        ])
        new = Placement([entry("arriving", "n0")])
        actions = plan_actions(
            prev, new,
            {"leaving": JobPhase.RUNNING, "tx:web@n1": JobPhase.RUNNING,
             "arriving": JobPhase.PENDING},
        )
        kinds = [type(a).__name__ for a in actions]
        assert kinds == ["StopVm", "SuspendVm", "StartVm"]

    def test_deterministic_order_within_category(self):
        new = Placement([entry("b", "n0"), entry("a", "n1")])
        actions = plan_actions(Placement(), new, {})
        assert [a.vm_id for a in actions] == ["a", "b"]
