"""Unit tests for the graceful-degradation wrapper (ResilientController)."""

import math

import pytest

from repro.cluster.node import NodeSpec
from repro.cluster.placement import Placement, PlacementEntry
from repro.config import ControllerConfig
from repro.core import ResilientController
from repro.core.controller import ControlDecision, ControlDiagnostics
from repro.core.hypothetical import HypotheticalAllocation
from repro.core.placement_solver import PlacementSolution
from repro.errors import DegradedModeError
from repro.types import WorkloadKind

import numpy as np


def _node(node_id="node000", mhz=3000.0, processors=4, memory_mb=4000.0):
    return NodeSpec(
        node_id=node_id,
        processors=processors,
        mhz_per_processor=mhz,
        memory_mb=memory_mb,
    )


def _tx_entry(app_id, node_id, cpu=1000.0, memory=400.0):
    return PlacementEntry(
        vm_id=f"tx:{app_id}@{node_id}",
        node_id=node_id,
        cpu_mhz=cpu,
        memory_mb=memory,
        kind=WorkloadKind.TRANSACTIONAL,
    )


def _job_entry(vm_id, node_id, cpu=2000.0, memory=1200.0):
    return PlacementEntry(
        vm_id=vm_id,
        node_id=node_id,
        cpu_mhz=cpu,
        memory_mb=memory,
        kind=WorkloadKind.LONG_RUNNING,
    )


def _decision(placement, t=0.0):
    return ControlDecision(
        actions=[],
        solution=PlacementSolution(
            placement=placement, job_rates={}, app_allocations={}
        ),
        hypothetical=HypotheticalAllocation(
            utility_level=0.5,
            rates=np.zeros(0),
            utilities=np.zeros(0),
            mean_utility=0.5,
            consumed=0.0,
        ),
        diagnostics=ControlDiagnostics(
            time=t,
            capacity=12_000.0,
            tx_demand=0.0,
            lr_demand=0.0,
            tx_target=0.0,
            lr_target=0.0,
            tx_utility_predicted=0.5,
            lr_utility_mean=0.5,
            lr_utility_level=0.5,
            equalized=True,
            arbiter_iterations=3,
            population_size=1,
        ),
    )


class _FakePolicy:
    """Scripted inner policy: each decide() pops the next behaviour."""

    def __init__(self, script):
        self.script = list(script)
        self.observed = []

    def observe_app(self, app_id, *, load, service_cycles=None):
        self.observed.append((app_id, load))

    def decide(self, t, **kwargs):
        step = self.script.pop(0)
        if isinstance(step, Exception):
            raise step
        return step


def _call(controller, *, nodes, current=None, t=0.0):
    return controller.decide(
        t,
        nodes=nodes,
        jobs=[],
        current_placement=current or Placement(),
        app_nodes={},
    )


class TestPassThrough:
    def test_success_returns_inner_decision_unchanged(self):
        nodes = [_node()]
        placement = Placement([_tx_entry("web", "node000")])
        decision = _decision(placement)
        inner = _FakePolicy([decision])
        wrapped = ResilientController(inner, ControllerConfig())
        assert _call(wrapped, nodes=nodes) is decision

    def test_observe_app_passes_through(self):
        inner = _FakePolicy([])
        ResilientController(inner).observe_app("web", load=42.0)
        assert inner.observed == [("web", 42.0)]


class TestExceptionFallback:
    def test_exception_degrades_to_last_known_good(self):
        nodes = [_node()]
        current = Placement([_tx_entry("web", "node000")])
        inner = _FakePolicy([RuntimeError("boom")])
        wrapped = ResilientController(inner, ControllerConfig())
        decision = _call(wrapped, nodes=nodes, current=current)
        assert decision.diagnostics.degraded
        assert decision.diagnostics.fallback_reason == "exception:RuntimeError"
        assert decision.diagnostics.fallback_detail == "RuntimeError: boom"
        assert list(decision.placement) == list(current)
        assert decision.actions == []

    def test_model_error_degrades_with_dedicated_reason(self):
        # Exact-solver failures (ModelError) are expected operational
        # events, not programming bugs: they fall back like any other
        # exception but under their own counter so dashboards can tell
        # "the MILP didn't converge" apart from crashes.
        from repro.errors import ModelError

        nodes = [_node()]
        current = Placement([_tx_entry("web", "node000")])
        inner = _FakePolicy([ModelError("placement MILP failed: status=4")])
        wrapped = ResilientController(inner, ControllerConfig())
        decision = _call(wrapped, nodes=nodes, current=current)
        assert decision.diagnostics.degraded
        assert decision.diagnostics.fallback_reason == "model-error"
        assert list(decision.placement) == list(current)

    def test_degraded_placement_drops_dead_nodes(self):
        nodes = [_node("node000")]  # node001 is gone this cycle
        current = Placement(
            [_tx_entry("web", "node000"), _job_entry("job-1", "node001")]
        )
        wrapped = ResilientController(_FakePolicy([ValueError("x")]))
        decision = _call(wrapped, nodes=nodes, current=current)
        assert [e.node_id for e in decision.placement] == ["node000"]

    def test_degraded_placement_clamps_to_brownout_capacity(self):
        # Incumbent grants 10 GHz on a node browned out to 6 GHz.
        browned = _node("node000", mhz=1500.0)  # 4 x 1500 = 6 GHz
        current = Placement(
            [
                _job_entry("job-1", "node000", cpu=6000.0),
                _job_entry("job-2", "node000", cpu=4000.0),
            ]
        )
        wrapped = ResilientController(_FakePolicy([ValueError("x")]))
        decision = _call(wrapped, nodes=[browned], current=current)
        cpu = decision.placement.cpu_used("node000")
        assert cpu == pytest.approx(6000.0)
        # Proportional scaling: 6:4 split preserved.
        assert decision.placement.entry("job-1").cpu_mhz == pytest.approx(3600.0)
        assert decision.placement.entry("job-2").cpu_mhz == pytest.approx(2400.0)

    def test_degraded_solution_accounts_tx_and_jobs(self):
        nodes = [_node()]
        current = Placement(
            [_tx_entry("web", "node000", cpu=1500.0), _job_entry("j", "node000")]
        )
        wrapped = ResilientController(_FakePolicy([ValueError("x")]))
        decision = _call(wrapped, nodes=nodes, current=current)
        assert decision.solution.app_allocations == {"web": 1500.0}
        assert decision.solution.job_rates == {"j": 2000.0}
        assert math.isnan(decision.diagnostics.tx_demand)


class TestFeasibilityGuard:
    def test_infeasible_decision_degrades(self):
        nodes = [_node()]  # 12 GHz capacity
        bad = Placement([_job_entry("j", "node000", cpu=20_000.0)])
        inner = _FakePolicy([_decision(bad)])
        wrapped = ResilientController(inner)
        decision = _call(wrapped, nodes=nodes)
        assert decision.diagnostics.degraded
        assert decision.diagnostics.fallback_reason == "infeasible"
        assert "CPU overcommitted" in decision.diagnostics.fallback_detail

    def test_unknown_node_degrades(self):
        nodes = [_node("node000")]
        bad = Placement([_job_entry("j", "node999")])
        wrapped = ResilientController(_FakePolicy([_decision(bad)]))
        decision = _call(wrapped, nodes=nodes)
        assert decision.diagnostics.fallback_reason == "infeasible"

    def test_memory_overcommit_degrades(self):
        nodes = [_node(memory_mb=1000.0)]
        bad = Placement([_job_entry("j", "node000", cpu=100.0, memory=2000.0)])
        wrapped = ResilientController(_FakePolicy([_decision(bad)]))
        decision = _call(wrapped, nodes=nodes)
        assert decision.diagnostics.fallback_reason == "infeasible"


class TestDeadlineBudget:
    class _Slow(_FakePolicy):
        def __init__(self, decision):
            super().__init__([])
            self.decision = decision

        def decide(self, t, **kwargs):
            import time

            time.sleep(0.02)  # 20 ms against a 1 ms budget
            return self.decision

    def test_non_strict_overrun_is_counted_not_degraded(self):
        nodes = [_node()]
        decision = _decision(Placement([_tx_entry("web", "node000")]))
        wrapped = ResilientController(
            self._Slow(decision), ControllerConfig(decide_budget_ms=1.0)
        )
        result = _call(wrapped, nodes=nodes)
        assert not result.diagnostics.degraded
        assert result.diagnostics.deadline_overrun

    def test_strict_overrun_degrades(self):
        nodes = [_node()]
        decision = _decision(Placement([_tx_entry("web", "node000")]))
        wrapped = ResilientController(
            self._Slow(decision),
            ControllerConfig(decide_budget_ms=1.0, decide_budget_strict=True),
        )
        result = _call(wrapped, nodes=nodes)
        assert result.diagnostics.degraded
        assert result.diagnostics.fallback_reason == "deadline"
        assert result.diagnostics.deadline_overrun


class TestDegradedModeLimit:
    def test_consecutive_limit_raises(self):
        nodes = [_node()]
        inner = _FakePolicy([ValueError("a"), ValueError("b"), ValueError("c")])
        wrapped = ResilientController(
            inner, ControllerConfig(max_consecutive_degraded=2)
        )
        _call(wrapped, nodes=nodes)
        _call(wrapped, nodes=nodes)
        with pytest.raises(DegradedModeError, match="consecutive degraded"):
            _call(wrapped, nodes=nodes)

    def test_limit_error_names_the_last_violation(self):
        nodes = [_node()]  # 12 GHz capacity
        bad = _decision(Placement([_job_entry("j", "node000", cpu=20_000.0)]))
        wrapped = ResilientController(
            _FakePolicy([bad, bad, bad]),
            ControllerConfig(max_consecutive_degraded=2),
        )
        _call(wrapped, nodes=nodes)
        _call(wrapped, nodes=nodes)
        with pytest.raises(DegradedModeError, match="CPU overcommitted"):
            _call(wrapped, nodes=nodes)

    def test_success_resets_the_streak(self):
        nodes = [_node()]
        good = _decision(Placement([_tx_entry("web", "node000")]))
        inner = _FakePolicy(
            [ValueError("a"), ValueError("b"), good, ValueError("c"), ValueError("d")]
        )
        wrapped = ResilientController(
            inner, ControllerConfig(max_consecutive_degraded=2)
        )
        degraded = [_call(wrapped, nodes=nodes).diagnostics.degraded for _ in range(5)]
        assert degraded == [True, True, False, True, True]


class TestConfigValidation:
    def test_budget_must_be_positive(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ControllerConfig(decide_budget_ms=0.0)
        with pytest.raises(ConfigurationError):
            ControllerConfig(max_consecutive_degraded=0)
