"""Property tests for the columnar ``Placement``.

A placement keeps its VMs as rows of columns and computes the per-node
queries from the live rows; these tests drive a ``Placement`` through
random ``add``/``remove``/``update_cpu`` sequences and assert that every
per-node query matches a brute-force recompute over the entries.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Placement, PlacementEntry, homogeneous_cluster
from repro.errors import PlacementError
from repro.types import WorkloadKind

_NODES = [f"node{i:03d}" for i in range(6)]


def _entry(vm: int, node: str, cpu: float, mem: float) -> PlacementEntry:
    kind = WorkloadKind.LONG_RUNNING if vm % 2 else WorkloadKind.TRANSACTIONAL
    return PlacementEntry(
        vm_id=f"vm{vm:03d}", node_id=node, cpu_mhz=cpu, memory_mb=mem, kind=kind
    )


#: One mutation: (op, vm-number, node-index, cpu, mem).
operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "update_cpu"]),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=len(_NODES) - 1),
        st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=4000.0, allow_nan=False),
    ),
    min_size=0,
    max_size=60,
)


class _BruteForce:
    """Reference model: a flat list of entries, scanned per query."""

    def __init__(self):
        self.entries: dict[str, PlacementEntry] = {}

    def cpu_used(self, node_id):
        return sum(e.cpu_mhz for e in self.entries.values() if e.node_id == node_id)

    def memory_used(self, node_id):
        return sum(e.memory_mb for e in self.entries.values() if e.node_id == node_id)

    def entries_on(self, node_id):
        return [e for e in self.entries.values() if e.node_id == node_id]

    def by_node(self):
        grouped: dict[str, list[PlacementEntry]] = {}
        for e in self.entries.values():
            grouped.setdefault(e.node_id, []).append(e)
        return grouped

    def total_cpu(self, kind=None):
        return sum(
            e.cpu_mhz
            for e in self.entries.values()
            if kind is None or e.kind is kind
        )


@given(operations)
@settings(max_examples=200, deadline=None)
def test_aggregates_match_brute_force(ops):
    placement = Placement()
    model = _BruteForce()
    for op, vm, node_idx, cpu, mem in ops:
        vm_id = f"vm{vm:03d}"
        node = _NODES[node_idx]
        if op == "add" and vm_id not in model.entries:
            entry = _entry(vm, node, cpu, mem)
            placement.add(entry)
            model.entries[vm_id] = entry
        elif op == "remove" and vm_id in model.entries:
            removed = placement.remove(vm_id)
            assert removed == model.entries.pop(vm_id)
        elif op == "update_cpu" and vm_id in model.entries:
            placement.update_cpu(vm_id, cpu)
            model.entries[vm_id] = dataclasses.replace(model.entries[vm_id], cpu_mhz=cpu)

    assert len(placement) == len(model.entries)
    assert sorted(e.vm_id for e in placement) == sorted(model.entries)
    for node in _NODES:
        assert placement.cpu_used(node) == pytest.approx(
            model.cpu_used(node), abs=1e-6
        )
        assert placement.memory_used(node) == pytest.approx(
            model.memory_used(node), abs=1e-6
        )
        assert placement.entries_on(node) == model.entries_on(node)
    grouped = placement.by_node()
    expected = model.by_node()
    assert set(grouped) == set(expected)
    for node, entries in grouped.items():
        assert entries == expected[node]
    assert placement.total_cpu() == pytest.approx(model.total_cpu(), abs=1e-6)
    for kind in WorkloadKind:
        assert placement.total_cpu(kind) == pytest.approx(
            model.total_cpu(kind), abs=1e-6
        )


@given(operations)
@settings(max_examples=100, deadline=None)
def test_validate_agrees_with_brute_force_check(ops):
    """validate() raises iff a brute-force capacity check finds a violation."""
    cluster = homogeneous_cluster(len(_NODES))  # 12000 MHz / 4000 MB per node
    placement = Placement()
    model = _BruteForce()
    for op, vm, node_idx, cpu, mem in ops:
        vm_id = f"vm{vm:03d}"
        node = _NODES[node_idx]
        if op == "add" and vm_id not in model.entries:
            entry = _entry(vm, node, cpu, mem)
            placement.add(entry)
            model.entries[vm_id] = entry
        elif op == "remove" and vm_id in model.entries:
            placement.remove(vm_id)
            del model.entries[vm_id]
        elif op == "update_cpu" and vm_id in model.entries:
            placement.update_cpu(vm_id, cpu)
            model.entries[vm_id] = dataclasses.replace(model.entries[vm_id], cpu_mhz=cpu)

    eps = 1e-6
    over = any(
        model.cpu_used(n.node_id) > n.cpu_capacity * (1 + eps) + eps
        or model.memory_used(n.node_id) > n.memory_mb * (1 + eps) + eps
        for n in cluster.active_nodes()
    )
    # Stay clear of the exact tolerance boundary, where a summation order
    # other than the placement's would decide the outcome.
    near_boundary = any(
        abs(model.cpu_used(n.node_id) - n.cpu_capacity) < 1e-3
        or abs(model.memory_used(n.node_id) - n.memory_mb) < 1e-3
        for n in cluster.active_nodes()
    )
    if near_boundary:
        return
    if over:
        with pytest.raises(PlacementError):
            placement.validate(cluster)
    else:
        placement.validate(cluster)


def test_copy_preserves_index():
    placement = Placement(
        [_entry(i, _NODES[i % len(_NODES)], 100.0 * i, 500.0) for i in range(12)]
    )
    clone = placement.copy()
    clone.remove("vm003")
    clone.update_cpu("vm004", 9.0)
    # The original is untouched, index included.
    assert "vm003" in placement
    assert placement.entry("vm004").cpu_mhz == 400.0
    node = _NODES[3 % len(_NODES)]
    assert placement.cpu_used(node) == pytest.approx(
        sum(e.cpu_mhz for e in placement.entries_on(node))
    )
    assert np.isclose(
        clone.cpu_used(_NODES[4 % len(_NODES)]),
        sum(e.cpu_mhz for e in clone.entries_on(_NODES[4 % len(_NODES)])),
    )
