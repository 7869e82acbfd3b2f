"""Unit tests for the network model subsystem (repro.netmodel)."""

import math

import pytest

from repro.api import TopologySpec
from repro.cluster.topology import NodeClass
from repro.errors import ConfigurationError, ModelError
from repro.netmodel import NetworkAwareModel, NetworkContext, NetworkSpec, ZoneSpec
from repro.perf.estimator import with_network_delay
from repro.perf.queueing import ClosedTransactionalModel


def zones(*pairs) -> tuple[ZoneSpec, ...]:
    """``ZoneSpec`` per ``(name, users)`` pair."""
    return tuple(ZoneSpec(name, users=users) for name, users in pairs)


def continuum() -> NetworkSpec:
    """Three zones, users skewed to the edge (the scenario family's shape)."""
    return NetworkSpec(
        zones=zones(("edge", 70.0), ("metro", 25.0), ("cloud", 5.0)),
        rtt_ms=((0.0, 30.0, 150.0), (30.0, 0.0, 120.0), (150.0, 120.0, 0.0)),
    )


class TestZoneTopologyValidation:
    def test_requires_zones(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(zones=(), rtt_ms=())

    def test_rejects_duplicate_zone_names(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            NetworkSpec(
                zones=zones(("a", 1.0), ("a", 1.0)), rtt_ms=((0.0, 1.0), (1.0, 0.0))
            )

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ConfigurationError, match="matrix"):
            NetworkSpec(zones=zones(("a", 1.0), ("b", 1.0)), rtt_ms=((0.0, 1.0),))

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ConfigurationError, match="symmetric"):
            NetworkSpec(
                zones=zones(("a", 1.0), ("b", 1.0)), rtt_ms=((0.0, 1.0), (2.0, 0.0))
            )

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ConfigurationError, match="diagonal"):
            NetworkSpec(
                zones=zones(("a", 1.0), ("b", 1.0)), rtt_ms=((1.0, 1.0), (1.0, 0.0))
            )

    def test_rejects_negative_rtt(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            NetworkSpec(
                zones=zones(("a", 1.0), ("b", 1.0)), rtt_ms=((0.0, -1.0), (-1.0, 0.0))
            )

    def test_rejects_all_zero_users(self):
        with pytest.raises(ConfigurationError, match="users"):
            NetworkSpec(zones=zones(("a", 0.0)), rtt_ms=((0.0,),))

    def test_unknown_zone_lookup_names_declared_zones(self):
        with pytest.raises(ConfigurationError, match="edge, metro, cloud"):
            continuum().rtt("edge", "mars")


class TestZoneTopologyRouting:
    def test_rtt_lookup_is_symmetric(self):
        topo = continuum()
        assert topo.rtt("edge", "cloud") == topo.rtt("cloud", "edge") == 150.0

    def test_weights_normalize(self):
        topo = continuum()
        assert topo.weight("edge") == pytest.approx(0.70)
        assert topo.weight("cloud") == pytest.approx(0.05)

    def test_expected_rtt_routes_to_nearest_serving_zone(self):
        topo = continuum()
        # Cloud-only serving: edge users pay 150, metro users 120.
        assert topo.expected_rtt_ms(("cloud",)) == pytest.approx(
            0.70 * 150.0 + 0.25 * 120.0
        )
        # Edge + metro: both big populations are in-zone, cloud routes to metro.
        assert topo.expected_rtt_ms(("edge", "metro")) == pytest.approx(
            0.05 * 120.0
        )

    def test_expected_rtt_empty_serving_set_is_zero(self):
        assert continuum().expected_rtt_ms(()) == 0.0

    def test_expected_rtt_s_converts_units(self):
        topo = continuum()
        assert topo.expected_rtt_s(("cloud",)) == pytest.approx(
            topo.expected_rtt_ms(("cloud",)) / 1000.0
        )

    def test_in_zone_fraction(self):
        topo = continuum()
        assert topo.in_zone_fraction(()) == 0.0
        assert topo.in_zone_fraction(("edge",)) == pytest.approx(0.70)
        assert topo.in_zone_fraction(("edge", "metro", "cloud")) == pytest.approx(1.0)

    def test_placement_gain_ranks_edge_first_from_empty(self):
        gains = continuum().placement_gain_ms(())
        ranked = sorted(gains, key=lambda z: -gains[z])
        assert ranked[0] == "edge"
        assert all(g >= 0 for g in gains.values())

    def test_placement_gain_is_marginal_improvement(self):
        topo = continuum()
        gains = topo.placement_gain_ms(("edge",))
        base = topo.expected_rtt_ms(("edge",))
        assert gains["metro"] == pytest.approx(
            base - topo.expected_rtt_ms(("edge", "metro"))
        )
        # Already-serving zones buy nothing.
        assert gains["edge"] == pytest.approx(0.0)


class TestNetworkAwareModel:
    def _inner(self) -> ClosedTransactionalModel:
        return ClosedTransactionalModel(
            num_clients=40.0,
            think_time=0.2,
            mean_service_cycles=300.0,
            request_cap_mhz=3000.0,
        )

    def test_shifts_response_times_by_delay(self):
        inner = self._inner()
        model = NetworkAwareModel(inner=inner, network_delay=0.05)
        assert model.min_response_time == pytest.approx(
            inner.min_response_time + 0.05
        )
        assert model.response_time(5_000.0) == pytest.approx(
            inner.response_time(5_000.0) + 0.05
        )

    def test_throughput_and_utilization_pass_through(self):
        inner = self._inner()
        model = NetworkAwareModel(inner=inner, network_delay=0.05)
        assert model.throughput(5_000.0) == inner.throughput(5_000.0)
        assert model.utilization(5_000.0) == inner.utilization(5_000.0)

    def test_allocation_for_rt_inverts_against_queueing_share(self):
        inner = self._inner()
        model = NetworkAwareModel(inner=inner, network_delay=0.05)
        target = inner.min_response_time + 0.1
        assert model.allocation_for_rt(target + 0.05) == pytest.approx(
            inner.allocation_for_rt(target)
        )

    def test_target_inside_the_delay_is_infeasible(self):
        model = NetworkAwareModel(inner=self._inner(), network_delay=0.5)
        with pytest.raises(ModelError):
            model.allocation_for_rt(0.4)

    def test_max_utility_demand_delegates_unchanged(self):
        inner = self._inner()
        model = NetworkAwareModel(inner=inner, network_delay=0.5)
        assert model.max_utility_demand() == inner.max_utility_demand()
        assert model.max_utility_demand(0.2) == inner.max_utility_demand(0.2)

    def test_rejects_negative_or_non_finite_delay(self):
        for bad in (-0.1, math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                NetworkAwareModel(inner=self._inner(), network_delay=bad)

    def test_with_network_delay_zero_is_identity(self):
        inner = self._inner()
        assert with_network_delay(inner, 0.0) is inner

    def test_with_network_delay_wraps_positive_delay(self):
        inner = self._inner()
        model = with_network_delay(inner, 0.02)
        assert isinstance(model, NetworkAwareModel)
        assert model.network_delay == 0.02


class TestNetworkSpec:
    def test_zone_names(self):
        assert continuum().zone_names() == ("edge", "metro", "cloud")

    def test_zone_spec_validation(self):
        with pytest.raises(ConfigurationError):
            ZoneSpec("", users=1.0)
        with pytest.raises(ConfigurationError):
            ZoneSpec("edge", users=-1.0)

    def test_invalid_matrix_fails_at_construction(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(
                zones=(ZoneSpec("a", users=1.0), ZoneSpec("b", users=1.0)),
                rtt_ms=((0.0, 1.0), (2.0, 0.0)),  # asymmetric
            )


class TestNetworkContext:
    def _ctx(self) -> NetworkContext:
        node_zone = {
            "edge-000": "edge",
            "edge-001": "edge",
            "metro-000": "metro",
            "cloud-000": "cloud",
        }
        return NetworkContext(continuum(), node_zone)

    def test_rejects_undeclared_zone_in_map(self):
        with pytest.raises(ConfigurationError, match="mars"):
            NetworkContext(continuum(), {"n0": "mars"})

    def test_serving_zones_sorted_unique_unknown_ids_skipped(self):
        ctx = self._ctx()
        zones = ctx.serving_zones(["edge-001", "cloud-000", "edge-000", "stray"])
        assert zones == ("cloud", "edge")

    def test_expected_rtt_and_in_zone_follow_topology(self):
        ctx = self._ctx()
        assert ctx.expected_rtt_s(["cloud-000"]) == pytest.approx(
            continuum().expected_rtt_s(("cloud",))
        )
        assert ctx.in_zone_fraction(["edge-000"]) == pytest.approx(0.70)

    def test_preferred_nodes_rank_edge_first_from_scratch(self):
        ctx = self._ctx()
        nodes = ["cloud-000", "metro-000", "edge-000", "edge-001"]
        pairs = dict(ctx.preferred_nodes(nodes, current_nodes=[]))
        assert pairs["edge-000"] == pairs["edge-001"] == 0
        assert pairs["metro-000"] > 0

    def test_preferred_nodes_excludes_zones_without_gain(self):
        ctx = self._ctx()
        nodes = ["cloud-000", "metro-000", "edge-000"]
        # Everything already served in-zone: no zone buys an improvement.
        pairs = ctx.preferred_nodes(nodes, current_nodes=nodes)
        assert pairs == ()

    def test_preferred_nodes_empty_without_map(self):
        ctx = NetworkContext(continuum())
        assert ctx.preferred_nodes(["n0", "n1"], current_nodes=[]) == ()

    def test_context_is_picklable(self):
        import pickle

        ctx = self._ctx()
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx


class TestZoneMapFromClasses:
    def test_explicit_zone_and_class_name_fallback(self):
        classes = (
            NodeClass(
                name="rack-a", count=2, processors=2,
                mhz_per_processor=2000.0, memory_mb=2000.0, zone="edge",
            ),
            NodeClass(
                name="cloud", count=1, processors=2,
                mhz_per_processor=2000.0, memory_mb=2000.0,
            ),
        )
        assert TopologySpec(classes=classes).zone_map() == {
            "rack-a-000": "edge",
            "rack-a-001": "edge",
            "cloud-000": "cloud",
        }

    def test_node_class_rejects_empty_zone(self):
        with pytest.raises(ConfigurationError):
            NodeClass(
                name="a", count=1, processors=2,
                mhz_per_processor=2000.0, memory_mb=2000.0, zone="",
            )

