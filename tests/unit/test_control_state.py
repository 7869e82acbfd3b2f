"""Unit tests for the cross-cycle control-plane state."""

import pytest

from repro.cluster.node import NodeSpec
from repro.config import ControllerConfig
from repro.core import ControlState, CycleFingerprint, CycleTelemetry
from repro.errors import ConfigurationError


def _nodes(n=3, mhz=3000.0):
    return [
        NodeSpec(
            node_id=f"n{i}", processors=1, mhz_per_processor=mhz, memory_mb=4000.0
        )
        for i in range(n)
    ]


def _fp(nodes=None, apps=("web",), capacity=9000.0, tx=4000.0, lr=5000.0, pop=10):
    return CycleFingerprint.of(
        nodes if nodes is not None else _nodes(), apps, capacity, tx, lr, pop
    )


class TestCycleFingerprint:
    def test_topology_is_sorted_and_captures_capacity(self):
        nodes = list(reversed(_nodes()))
        fp = _fp(nodes=nodes)
        assert [nid for nid, _, _ in fp.topology] == ["n0", "n1", "n2"]
        assert fp.topology[0][1] == 3000.0

    def test_equal_inputs_equal_fingerprints(self):
        assert _fp() == _fp()
        assert _fp(pop=11) != _fp()


class TestControlStateLifecycle:
    def test_first_cycle_is_cold(self):
        state = ControlState()
        warm, reason = state.begin_cycle(_fp())
        assert not warm and reason == "first-cycle"

    def test_second_compatible_cycle_is_warm(self):
        state = ControlState()
        state.begin_cycle(_fp())
        state.complete_cycle(_fp(), lr_level=0.4)
        warm, reason = state.begin_cycle(_fp())
        assert warm and reason == ""
        assert state.lr_level == 0.4

    def test_disabled_state_never_warms(self):
        state = ControlState(warm=False)
        state.begin_cycle(_fp())
        state.complete_cycle(_fp(), lr_level=0.4)
        warm, reason = state.begin_cycle(_fp())
        assert not warm and reason == "disabled"

    @pytest.mark.parametrize(
        "changed, reason",
        [
            (dict(nodes=_nodes(2)), "topology-changed"),  # node failure
            (dict(nodes=_nodes(3, mhz=2000.0)), "topology-changed"),  # resize
            (dict(apps=("web", "web2")), "app-churn"),
            (dict(tx=8000.0), "demand-shift"),
            (dict(lr=1.0), "demand-shift"),
            (dict(pop=100), "demand-shift"),
        ],
    )
    def test_invalidation_rules(self, changed, reason):
        state = ControlState(demand_rtol=0.35)
        state.begin_cycle(_fp())
        state.complete_cycle(_fp(), lr_level=0.4)
        warm, got = state.begin_cycle(_fp(**changed))
        assert not warm and got == reason

    def test_demand_shift_within_tolerance_stays_warm(self):
        state = ControlState(demand_rtol=0.35)
        state.begin_cycle(_fp())
        state.complete_cycle(_fp(), lr_level=0.4)
        warm, _ = state.begin_cycle(_fp(tx=4000.0 * 1.2, lr=5000.0 * 0.8))
        assert warm

    def test_explicit_invalidate_forces_one_cold_cycle(self):
        state = ControlState()
        state.begin_cycle(_fp())
        state.complete_cycle(_fp(), lr_level=0.4)
        state.invalidate("operator")
        warm, reason = state.begin_cycle(_fp())
        assert not warm and reason == "invalidated:operator"
        assert state.lr_level is None
        # The next completed cycle restores warm operation.
        state.complete_cycle(_fp(), lr_level=0.5)
        warm, _ = state.begin_cycle(_fp())
        assert warm

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ControlState(demand_rtol=-0.1)


class TestCycleTelemetry:
    def test_cache_hit_rate(self):
        t = CycleTelemetry(mode="warm", reason="", eq_evals=30, eq_cache_hits=10)
        assert t.cache_hit_rate == pytest.approx(0.25)
        assert CycleTelemetry(mode="cold", reason="first-cycle").cache_hit_rate == 0.0


class TestControllerConfigWarmFields:
    def test_defaults_enable_warm_start(self):
        config = ControllerConfig()
        assert config.warm_start is True
        assert config.warm_demand_rtol == 0.35
        assert config.warm_seed_depth == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ControllerConfig(warm_demand_rtol=-1.0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(warm_seed_depth=0)
