"""Unit tests for topology builders."""

import pytest

from repro.cluster import homogeneous_cluster
from repro.errors import ConfigurationError


class TestBuilders:
    def test_homogeneous_count_and_ids(self):
        cluster = homogeneous_cluster(3, prefix="m")
        assert cluster.node_ids == ["m000", "m001", "m002"]

    def test_homogeneous_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            homogeneous_cluster(0)



class TestNodeClasses:
    def test_cluster_from_classes_ids_and_shapes(self):
        from repro.cluster import NodeClass, cluster_from_classes

        cluster = cluster_from_classes(
            [
                NodeClass("modern", 2, 4, 3000.0, 4000.0),
                NodeClass("legacy", 1, 2, 2000.0, 2400.0),
            ]
        )
        assert cluster.node_ids == ["modern-000", "modern-001", "legacy-000"]
        assert cluster.node("legacy-000").processors == 2
        assert cluster.total_cpu_capacity == pytest.approx(2 * 12_000.0 + 4_000.0)

    def test_duplicate_class_names_rejected(self):
        from repro.cluster import NodeClass, cluster_from_classes

        with pytest.raises(ConfigurationError, match="duplicate"):
            cluster_from_classes(
                [
                    NodeClass("a", 1, 4, 3000.0, 4000.0),
                    NodeClass("a", 2, 4, 3000.0, 4000.0),
                ]
            )

    def test_invalid_class_fields_rejected(self):
        from repro.cluster import NodeClass, cluster_from_classes

        with pytest.raises(ConfigurationError, match="count"):
            NodeClass("a", 0, 4, 3000.0, 4000.0)
        with pytest.raises(ConfigurationError):
            cluster_from_classes([])

    def test_node_class_capacity(self):
        from repro.cluster import NodeClass

        cls = NodeClass("m", 3, 4, 3000.0, 4000.0)
        assert cls.cpu_capacity == pytest.approx(36_000.0)


class TestZones:
    def test_zone_map_uses_explicit_zone_then_class_name(self):
        from repro.api import TopologySpec
        from repro.cluster import NodeClass

        classes = (
            NodeClass("rack-a", 2, 4, 3000.0, 4000.0, zone="edge"),
            NodeClass("cloud", 1, 4, 3000.0, 4000.0),
        )
        assert TopologySpec(classes=classes).zone_map() == {
            "rack-a-000": "edge",
            "rack-a-001": "edge",
            "cloud-000": "cloud",
        }

    def test_zone_survives_class_round_trip(self):
        from repro.cluster import NodeClass

        cls = NodeClass("rack-a", 2, 4, 3000.0, 4000.0, zone="edge")
        assert cls.zone == "edge"
        assert NodeClass("rack-a", 2, 4, 3000.0, 4000.0).zone is None

    def test_empty_zone_rejected(self):
        from repro.cluster import NodeClass

        with pytest.raises(ConfigurationError, match="zone"):
            NodeClass("a", 1, 4, 3000.0, 4000.0, zone="")
