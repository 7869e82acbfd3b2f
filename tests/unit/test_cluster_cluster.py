"""Unit tests for the cluster container and health tracking."""

import copy
import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, NodeSpec, NodeTable, homogeneous_cluster
from repro.cluster.node import FIT_TOLERANCE
from repro.errors import ConfigurationError, UnknownEntityError


def node(nid: str) -> NodeSpec:
    return NodeSpec(nid, 4, 3000.0, 4000.0)


class TestClusterBasics:
    def test_len_and_iteration_order(self):
        cluster = Cluster([node("a"), node("b")])
        assert len(cluster) == 2
        assert [n.node_id for n in cluster] == ["a", "b"]

    def test_lookup(self):
        cluster = Cluster([node("a")])
        assert cluster.node("a").node_id == "a"
        assert "a" in cluster
        assert "zz" not in cluster

    def test_unknown_node_raises(self):
        cluster = Cluster([node("a")])
        with pytest.raises(UnknownEntityError):
            cluster.node("zz")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster([node("a"), node("a")])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            Cluster([])


class TestHealth:
    def test_fail_and_restore(self):
        cluster = homogeneous_cluster(3)
        nid = cluster.node_ids[0]
        assert cluster.is_active(nid)
        cluster.fail_node(nid)
        assert not cluster.is_active(nid)
        assert nid in cluster.failed_node_ids
        cluster.restore_node(nid)
        assert cluster.is_active(nid)

    def test_failing_unknown_node_raises(self):
        cluster = homogeneous_cluster(2)
        with pytest.raises(UnknownEntityError):
            cluster.fail_node("ghost")

    def test_active_nodes_excludes_failed(self):
        cluster = homogeneous_cluster(3)
        cluster.fail_node(cluster.node_ids[1])
        actives = [n.node_id for n in cluster.active_nodes()]
        assert cluster.node_ids[1] not in actives
        assert len(actives) == 2

    def test_capacity_tracks_failures(self):
        cluster = homogeneous_cluster(2)
        full = cluster.total_cpu_capacity
        cluster.fail_node(cluster.node_ids[0])
        assert cluster.total_cpu_capacity == pytest.approx(full / 2)
        assert cluster.total_memory == pytest.approx(4000.0)

    def test_restore_is_idempotent(self):
        cluster = homogeneous_cluster(2)
        cluster.restore_node(cluster.node_ids[0])  # never failed
        assert cluster.is_active(cluster.node_ids[0])


#: Random health calls: (call, node index, brownout fraction).
HEALTH_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["fail", "restore", "brownout", "clear"]),
        st.integers(0, 4),
        st.floats(0.05, 1.0),
    ),
    max_size=30,
)


class TestCachedLiveView:
    """The live view kept across health changes equals one rebuilt from scratch."""

    NODES = [
        NodeSpec(f"n{i}", processors, mhz, memory)
        for i, (processors, mhz, memory) in enumerate(
            [(4, 3000.0, 4000.0), (2, 2400.0, 8000.0), (8, 1800.0, 16000.0),
             (4, 3300.0, 4000.0), (1, 2000.0, 2000.0)]
        )
    ]

    @staticmethod
    def _from_scratch(failed, brownout):
        nominal = [n for n in TestCachedLiveView.NODES if n.node_id not in failed]
        live = [
            dataclasses.replace(
                n, mhz_per_processor=n.mhz_per_processor * brownout[n.node_id]
            )
            if n.node_id in brownout
            else n
            for n in nominal
        ]
        total_cpu = sum(n.cpu_capacity for n in live)
        nominal_cpu = sum(n.cpu_capacity for n in nominal)
        fraction = 0.0 if nominal_cpu <= 0 else 1.0 - total_cpu / nominal_cpu
        return live, total_cpu, sum(n.memory_mb for n in live), fraction

    @staticmethod
    def _apply(cluster, op, node_id, fraction):
        if op == "fail":
            cluster.fail_node(node_id)
        elif op == "restore":
            cluster.restore_node(node_id)
        elif op == "brownout":
            cluster.set_brownout(node_id, fraction)
        else:
            cluster.clear_brownout(node_id)

    @given(HEALTH_STEPS)
    @settings(max_examples=150, deadline=None)
    def test_matches_recomputation(self, steps):
        cluster = Cluster(self.NODES)
        failed: set[str] = set()
        brownout: dict[str, float] = {}
        for op, index, fraction in steps:
            node_id = self.NODES[index].node_id
            self._apply(cluster, op, node_id, fraction)
            if op == "fail":
                failed.add(node_id)
            elif op == "restore":
                failed.discard(node_id)
            elif op == "brownout" and fraction != 1.0:
                brownout[node_id] = fraction
            else:
                brownout.pop(node_id, None)
            live, total_cpu, total_memory, shed = self._from_scratch(failed, brownout)
            assert cluster.active_nodes() == live
            assert dict(cluster.active_node_map) == {n.node_id: n for n in live}
            assert cluster.total_cpu_capacity == total_cpu
            assert cluster.total_memory == total_memory
            assert cluster.brownout_capacity_fraction == shed

    @given(HEALTH_STEPS)
    @settings(max_examples=100, deadline=None)
    def test_node_table_is_the_live_view(self, steps):
        """After each health call the table holds the live view, as specs
        and as id-sorted columns (the fit columns end in the NaN of "no
        node"); reads in between return the same object."""
        cluster = Cluster(self.NODES)
        for op, index, fraction in steps:
            before = cluster.node_table
            self._apply(cluster, op, self.NODES[index].node_id, fraction)
            table = cluster.node_table
            assert table is not before
            live = cluster.active_nodes()
            assert list(table) == live
            assert dict(cluster.active_node_map) == table.by_id
            assert table.by_id == {n.node_id: n for n in live}
            assert table.ids == sorted(table.by_id)
            assert table.pos == {node_id: i for i, node_id in enumerate(table.ids)}
            specs = [table.by_id[node_id] for node_id in table.ids]
            assert table.cpu.tolist() == [float(n.cpu_capacity) for n in specs]
            assert table.mem.tolist() == [float(n.memory_mb) for n in specs]
            for fit, column in ((table.cpu_fit, table.cpu), (table.mem_fit, table.mem)):
                limits = [c * (1 + FIT_TOLERANCE) + FIT_TOLERANCE for c in column.tolist()]
                assert fit[:-1].tolist() == limits and math.isnan(fit[-1])
            assert table.total_cpu == cluster.total_cpu_capacity
            assert table.total_cpu == sum(n.cpu_capacity for n in live)
            assert cluster.node_table is table

    def test_health_changes_before_a_read_build_one_table(self, monkeypatch):
        built = []
        build = NodeTable.__init__

        def counting(table, nodes):
            build(table, nodes)
            built.append(table)

        monkeypatch.setattr(NodeTable, "__init__", counting)
        cluster = Cluster(self.NODES)
        cluster.fail_node("n1")
        cluster.set_brownout("n2", 0.5)
        cluster.clear_brownout("n3")
        cluster.restore_node("n1")
        assert built == []
        table = cluster.node_table
        assert cluster.active_nodes() == list(table)
        assert cluster.total_memory == sum(n.memory_mb for n in table)
        assert cluster.brownout_capacity_fraction > 0.0
        assert built == [table]

    def test_active_nodes_is_a_new_list(self):
        cluster = Cluster(self.NODES)
        cluster.active_nodes().clear()
        assert len(cluster.active_nodes()) == len(self.NODES)

    def test_copies_keep_the_live_view(self):
        cluster = Cluster(self.NODES)
        cluster.fail_node("n1")
        cluster.set_brownout("n2", 0.5)
        for clone in (pickle.loads(pickle.dumps(cluster)), copy.deepcopy(cluster)):
            assert clone.active_nodes() == cluster.active_nodes()
            assert dict(clone.active_node_map) == dict(cluster.active_node_map)
            assert clone.brownout_capacity_fraction == cluster.brownout_capacity_fraction
