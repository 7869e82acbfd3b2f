"""Unit tests for the transactional application model."""

import math

import pytest

from repro.errors import ConfigurationError, LifecycleError
from repro.perf import ClosedTransactionalModel, OpenTransactionalModel
from repro.workloads import ConstantProfile, TransactionalApp, TransactionalAppSpec


def make_spec(**overrides) -> TransactionalAppSpec:
    params = dict(
        app_id="web",
        rt_goal=0.4,
        mean_service_cycles=300.0,
        request_cap_mhz=3000.0,
        instance_memory_mb=400.0,
        min_instances=1,
        max_instances=4,
        model_kind="closed",
        think_time=0.2,
    )
    params.update(overrides)
    return TransactionalAppSpec(**params)


class TestSpec:
    def test_min_response_time(self):
        assert make_spec().min_response_time == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"app_id": ""},
            {"rt_goal": 0.0},
            {"mean_service_cycles": 0.0},
            {"request_cap_mhz": 0.0},
            {"instance_memory_mb": 0.0},
            {"min_instances": 0},
            {"max_instances": 0},
            {"model_kind": "weird"},
            {"think_time": -1.0},
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            make_spec(**overrides)

    def test_build_closed_model(self):
        model = make_spec().build_perf_model(load=100.0)
        assert isinstance(model, ClosedTransactionalModel)
        assert model.num_clients == 100.0
        assert model.think_time == 0.2

    def test_build_open_model(self):
        model = make_spec(model_kind="open").build_perf_model(load=50.0)
        assert isinstance(model, OpenTransactionalModel)
        assert model.arrival_rate == 50.0

    def test_build_model_with_estimated_service_cycles(self):
        model = make_spec().build_perf_model(load=10.0, service_cycles=450.0)
        assert model.mean_service_cycles == 450.0


class TestInstances:
    def test_start_and_allocation_bookkeeping(self):
        app = TransactionalApp(make_spec(), ConstantProfile(100.0))
        app.start_instance(0.0, "n0", 1000.0)
        app.start_instance(0.0, "n1", 500.0)
        assert app.instance_count == 2
        assert app.instance_nodes == ["n0", "n1"]
        assert app.total_allocation == 1500.0

    def test_duplicate_instance_on_node_rejected(self):
        app = TransactionalApp(make_spec(), ConstantProfile(100.0))
        app.start_instance(0.0, "n0")
        with pytest.raises(LifecycleError):
            app.start_instance(1.0, "n0")

    def test_max_instances_enforced(self):
        app = TransactionalApp(make_spec(max_instances=1), ConstantProfile(1.0))
        app.start_instance(0.0, "n0")
        with pytest.raises(LifecycleError):
            app.start_instance(0.0, "n1")

    def test_stop_respects_min_instances(self):
        app = TransactionalApp(make_spec(min_instances=1), ConstantProfile(1.0))
        app.start_instance(0.0, "n0")
        with pytest.raises(LifecycleError):
            app.stop_instance("n0")
        app.start_instance(0.0, "n1")
        app.stop_instance("n0")
        assert app.instance_nodes == ["n1"]

    def test_stop_unknown_node_rejected(self):
        app = TransactionalApp(make_spec(), ConstantProfile(1.0))
        with pytest.raises(LifecycleError):
            app.stop_instance("ghost")

    def test_evacuate_ignores_min_instances(self):
        app = TransactionalApp(make_spec(min_instances=1), ConstantProfile(1.0))
        app.start_instance(0.0, "n0")
        assert app.evacuate_node("n0") is True
        assert app.instance_count == 0
        assert app.evacuate_node("n0") is False  # idempotent

    def test_set_instance_allocation(self):
        app = TransactionalApp(make_spec(), ConstantProfile(1.0))
        app.start_instance(0.0, "n0", 100.0)
        app.set_instance_allocation("n0", 700.0)
        assert app.total_allocation == 700.0
        with pytest.raises(LifecycleError):
            app.set_instance_allocation("ghost", 1.0)

    def test_nan_grant_rejected(self):
        app = TransactionalApp(make_spec(), ConstantProfile(1.0))
        with pytest.raises(LifecycleError):
            app.start_instance(0.0, "n0", math.nan)
        assert app.instance_count == 0
        app.start_instance(0.0, "n0", 100.0)
        with pytest.raises(LifecycleError):
            app.set_instance_allocation("n0", math.nan)
        assert app.total_allocation == 100.0

    def test_set_instance_allocations_in_one_call(self):
        app = TransactionalApp(make_spec(), ConstantProfile(1.0))
        for node_id in ("n2", "n0", "n1"):
            app.start_instance(0.0, node_id, 100.0)
        app.set_instance_allocations(["n1", "n2"], [300.0, 200])
        assert app._instances == {"n2": 200.0, "n0": 100.0, "n1": 300.0}
        assert list(app._instances) == ["n2", "n0", "n1"]  # order kept

    @pytest.mark.parametrize("nodes, grants, message", [
        (["n0", "ghost"], [1.0, 1.0], "no instance on ghost"),
        (["n0", "n1"], [1.0, math.nan], "must be non-negative, got nan"),
        (["n0", "n1"], [-1.0, 1.0], "must be non-negative, got -1.0"),
    ])
    def test_set_instance_allocations_checks_every_pair_first(self, nodes, grants, message):
        app = TransactionalApp(make_spec(), ConstantProfile(1.0))
        app.start_instance(0.0, "n0", 100.0)
        app.start_instance(0.0, "n1", 100.0)
        with pytest.raises(LifecycleError, match=message):
            app.set_instance_allocations(nodes, grants)
        assert app.total_allocation == 200.0


class TestWorkloadIntensity:
    def test_arrival_rate_delegates_to_profile(self):
        app = TransactionalApp(make_spec(), ConstantProfile(123.0))
        assert app.arrival_rate(0.0) == 123.0
        assert app.arrival_rate(5e4) == 123.0

    def test_offered_load(self):
        app = TransactionalApp(make_spec(model_kind="open"), ConstantProfile(10.0))
        assert app.offered_load(0.0) == pytest.approx(3000.0)
