"""Unit tests for placement matrices and feasibility validation."""

import math

import pytest

from repro.cluster import Placement, PlacementEntry, homogeneous_cluster
from repro.errors import PlacementError
from repro.types import WorkloadKind


def entry(vm: str, node: str, cpu: float = 1000.0, mem: float = 1200.0,
          kind: WorkloadKind = WorkloadKind.LONG_RUNNING) -> PlacementEntry:
    return PlacementEntry(vm_id=vm, node_id=node, cpu_mhz=cpu, memory_mb=mem, kind=kind)


class TestPlacementCollection:
    def test_add_and_lookup(self):
        p = Placement([entry("a", "n0")])
        assert "a" in p
        assert p.entry("a").node_id == "n0"
        assert p.get("missing") is None

    def test_duplicate_vm_rejected(self):
        with pytest.raises(PlacementError):
            Placement([entry("a", "n0"), entry("a", "n1")])

    def test_add_existing_rejected(self):
        p = Placement([entry("a", "n0")])
        with pytest.raises(PlacementError):
            p.add(entry("a", "n1"))

    def test_remove_returns_entry(self):
        p = Placement([entry("a", "n0")])
        removed = p.remove("a")
        assert removed.vm_id == "a"
        assert len(p) == 0

    def test_remove_missing_rejected(self):
        with pytest.raises(PlacementError):
            Placement().remove("ghost")

    def test_update_cpu(self):
        p = Placement([entry("a", "n0", cpu=100.0)])
        p.update_cpu("a", 250.0)
        assert p.entry("a").cpu_mhz == 250.0

    @pytest.mark.parametrize("cpu", [-500.0, math.nan])
    def test_update_cpu_rejects_negative_and_nan(self, cpu):
        p = Placement([entry("a", "n0", cpu=100.0)])
        with pytest.raises(PlacementError, match="negative CPU grant"):
            p.update_cpu("a", cpu)
        assert p.entry("a").cpu_mhz == 100.0
        assert p.cpu_used("n0") == 100.0

    def test_copy_is_independent(self):
        p = Placement([entry("a", "n0")])
        q = p.copy()
        q.remove("a")
        assert "a" in p

    def test_negative_cpu_rejected(self):
        with pytest.raises(PlacementError):
            entry("a", "n0", cpu=-1.0)


class TestAggregation:
    def test_per_node_usage(self):
        p = Placement([entry("a", "n0", 1000.0, 1200.0),
                       entry("b", "n0", 500.0, 400.0),
                       entry("c", "n1", 2000.0, 1200.0)])
        assert p.cpu_used("n0") == 1500.0
        assert p.memory_used("n0") == 1600.0
        assert p.cpu_used("n1") == 2000.0
        assert p.cpu_used("empty") == 0.0

    def test_total_cpu_by_kind(self):
        p = Placement([
            entry("a", "n0", 1000.0, 1200.0, WorkloadKind.LONG_RUNNING),
            entry("b", "n0", 700.0, 400.0, WorkloadKind.TRANSACTIONAL),
        ])
        assert p.total_cpu() == 1700.0
        assert p.total_cpu(WorkloadKind.TRANSACTIONAL) == 700.0
        assert p.total_cpu(WorkloadKind.LONG_RUNNING) == 1000.0

    def test_by_node_groups_entries(self):
        p = Placement([entry("a", "n0"), entry("b", "n0"), entry("c", "n1")])
        grouped = p.by_node()
        assert {e.vm_id for e in grouped["n0"]} == {"a", "b"}
        assert {e.vm_id for e in grouped["n1"]} == {"c"}


class TestValidation:
    def test_feasible_placement_passes(self):
        cluster = homogeneous_cluster(2)  # 12000 MHz, 4000 MB per node
        p = Placement([entry("a", "node000", 3000.0, 1200.0),
                       entry("b", "node000", 3000.0, 1200.0),
                       entry("c", "node000", 3000.0, 1200.0)])
        p.validate(cluster)  # must not raise

    def test_cpu_overcommit_detected(self):
        cluster = homogeneous_cluster(1)
        p = Placement([entry("a", "node000", 13_000.0, 1200.0)])
        with pytest.raises(PlacementError, match="CPU"):
            p.validate(cluster)

    def test_memory_overcommit_detected(self):
        cluster = homogeneous_cluster(1)
        p = Placement([entry(f"v{i}", "node000", 100.0, 1200.0) for i in range(4)])
        with pytest.raises(PlacementError, match="memory"):
            p.validate(cluster)

    @pytest.mark.parametrize("cpu, mem, what", [
        (math.nan, 1200.0, "CPU"),
        (100.0, math.nan, "memory"),
    ])
    def test_nan_aggregate_detected(self, cpu, mem, what):
        # ``place`` takes the grant unchecked for NaN; the feasibility
        # predicate must still refuse the node it lands on.
        cluster = homogeneous_cluster(1)
        p = Placement()
        p.place("a", "node000", cpu, mem, WorkloadKind.LONG_RUNNING)
        with pytest.raises(PlacementError, match=what):
            p.validate(cluster)

    def test_unknown_node_detected(self):
        cluster = homogeneous_cluster(1)
        p = Placement([entry("a", "ghost")])
        with pytest.raises(PlacementError, match="unknown node"):
            p.validate(cluster)

    def test_failed_node_detected(self):
        cluster = homogeneous_cluster(2)
        cluster.fail_node("node000")
        p = Placement([entry("a", "node000")])
        with pytest.raises(PlacementError, match="failed node"):
            p.validate(cluster)
