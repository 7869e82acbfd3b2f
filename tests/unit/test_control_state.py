"""Unit tests for the controller's cross-cycle state.

The controller carries one float across cycles, the last equalized
level.  With ``warm_start`` it seeds the first solve of every later
cycle, and nothing drops it: no change of the cycle's inputs runs a
cycle cold.
"""

import numpy as np
import pytest

from repro.cluster import Placement
from repro.cluster.node import NodeSpec
from repro.config import ControllerConfig
from repro.core import CycleTelemetry, UtilityDrivenController
from repro.core.demand import LongRunningCurve
from repro.errors import ConfigurationError
from repro.workloads import TransactionalAppSpec

from ..conftest import make_job


def _nodes(n=3, mhz=3000.0):
    return [
        NodeSpec(
            node_id=f"n{i}", processors=2, mhz_per_processor=mhz, memory_mb=4000.0
        )
        for i in range(n)
    ]


def _jobs(n=10):
    return [
        make_job(job_id=f"j{i}", work=2e6 + 1e5 * i, goal=3000.0 + 200.0 * i)
        for i in range(n)
    ]


def _controller(**config):
    app = TransactionalAppSpec(
        app_id="web",
        rt_goal=0.4,
        mean_service_cycles=300.0,
        request_cap_mhz=3000.0,
        instance_memory_mb=400.0,
        min_instances=1,
        max_instances=3,
        model_kind="closed",
        think_time=0.2,
    )
    return UtilityDrivenController([app], ControllerConfig(**config))


def _cycle(controller, t=0.0, nodes=None, jobs=None, app_nodes=None, load=60.0):
    controller.observe_app("web", load=load)
    return controller.decide(
        t,
        nodes=nodes if nodes is not None else _nodes(),
        jobs=jobs if jobs is not None else _jobs(),
        current_placement=Placement(),
        app_nodes=app_nodes if app_nodes is not None else {"web": frozenset()},
    )


@pytest.fixture
def seeds(monkeypatch):
    """The levels the controller seeds its cycles' first solves with."""
    seen = []
    original = LongRunningCurve.warm_seed

    def warm_seed(curve, level):
        seen.append(level)
        original(curve, level)

    monkeypatch.setattr(LongRunningCurve, "warm_seed", warm_seed)
    return seen


class TestControlStateLifecycle:
    def test_first_cycle_is_cold(self, seeds):
        decision = _cycle(_controller())
        assert decision.diagnostics.telemetry.mode == "cold"
        assert seeds == []

    def test_second_compatible_cycle_is_warm(self, seeds):
        controller = _controller()
        first = _cycle(controller)
        second = _cycle(controller, t=600.0)
        assert second.diagnostics.telemetry.mode == "warm"
        assert seeds == [first.diagnostics.lr_utility_level]

    def test_disabled_state_never_warms(self, seeds):
        controller = _controller(warm_start=False)
        modes = [
            _cycle(controller, t=t).diagnostics.telemetry.mode for t in (0.0, 600.0)
        ]
        assert modes == ["cold", "cold"]
        assert seeds == []

    @pytest.mark.parametrize(
        "changed, reason",
        [
            (dict(nodes=_nodes(2)), "topology-changed"),  # node failure
            (dict(nodes=_nodes(3, mhz=2000.0)), "topology-changed"),  # resize
            (dict(app_nodes={"web": frozenset({"n0", "n1"})}), "app-churn"),
            (dict(load=480.0), "demand-shift"),
            (dict(jobs=_jobs(1)), "demand-shift"),
            (dict(jobs=_jobs(60)), "demand-shift"),
        ],
    )
    def test_invalidation_rules(self, changed, reason):
        # Each change ran the next cycle cold (for ``reason``) while the
        # controller kept invalidation rules; now none does, and the
        # seeded cycle still decides exactly as a cold controller.
        warm, cold = _controller(), _controller(warm_start=False)
        for controller in (warm, cold):
            _cycle(controller)
        decision_w = _cycle(warm, t=600.0, **changed)
        decision_c = _cycle(cold, t=600.0, **changed)
        assert decision_w.diagnostics.telemetry.mode == "warm"
        assert decision_w.actions == decision_c.actions
        assert decision_w.solution.job_rates == decision_c.solution.job_rates
        assert decision_w.diagnostics.lr_utility_level == (
            decision_c.diagnostics.lr_utility_level
        )
        assert np.array_equal(
            decision_w.hypothetical.rates, decision_c.hypothetical.rates
        )

    def test_demand_shift_within_tolerance_stays_warm(self):
        # ``warm_demand_rtol`` is unread: even a zero tolerance keeps a
        # cycle whose demand shifted warm.
        controller = _controller(warm_demand_rtol=0.0)
        _cycle(controller)
        decision = _cycle(controller, t=600.0, load=72.0, jobs=_jobs(8))
        assert decision.diagnostics.telemetry.mode == "warm"


class TestCycleTelemetry:
    def test_cache_hit_rate(self):
        t = CycleTelemetry(mode="warm", eq_evals=30, eq_cache_hits=10)
        assert t.cache_hit_rate == pytest.approx(0.25)
        assert CycleTelemetry(mode="cold").cache_hit_rate == 0.0


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
