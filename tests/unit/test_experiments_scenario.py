"""Unit tests for scenario construction."""

import pytest

from repro.api import scenario_spec
from repro.config import ControllerConfig
from repro.errors import ConfigurationError
from repro.experiments.scenario import NodeFailure


class TestPaperScenario:
    def test_matches_paper_parameters(self):
        scenario = scenario_spec("paper").materialize()
        assert scenario.num_nodes == 25
        assert scenario.node_processors == 4
        assert len(scenario.job_specs) == 800
        assert scenario.controller.control_cycle == 600.0
        assert scenario.horizon == 70_000.0

    def test_same_seed_same_trace(self):
        a = scenario_spec("paper", seed=5).materialize()
        b = scenario_spec("paper", seed=5).materialize()
        assert [s.submit_time for s in a.job_specs] == [
            s.submit_time for s in b.job_specs
        ]

    def test_different_seed_different_trace(self):
        a = scenario_spec("paper", seed=5).materialize()
        b = scenario_spec("paper", seed=6).materialize()
        assert [s.submit_time for s in a.job_specs] != [
            s.submit_time for s in b.job_specs
        ]

    def test_cluster_capacity(self):
        cluster = scenario_spec("paper").materialize().build_cluster()
        assert cluster.total_cpu_capacity == pytest.approx(300_000.0)

    def test_tx_demand_fits_figure2_band(self):
        # The transactional max-utility demand must sit around 70% of
        # cluster capacity (~210 GHz), as in the paper's Figure 2.
        scenario = scenario_spec("paper").materialize()
        workload = scenario.apps[0]
        model = workload.spec.build_perf_model(210.0)
        assert model.max_utility_demand() == pytest.approx(210_000.0, rel=0.05)


class TestScaledScenario:
    def test_scaling_shrinks_everything_together(self):
        scenario = scenario_spec("paper", scale=0.2).materialize()
        assert scenario.num_nodes == 5
        assert len(scenario.job_specs) == 160
        assert scenario.horizon == 70_000.0  # durations do not scale

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_spec("paper", scale=0.0).materialize()

    def test_controller_override(self):
        config = ControllerConfig(control_cycle=300.0)
        scenario = scenario_spec("paper", scale=0.2).materialize().with_controller(
            config
        )
        assert scenario.controller.control_cycle == 300.0


class TestScenarioHelpers:
    def test_with_failures(self):
        scenario = scenario_spec("smoke").materialize().with_failures(
            [NodeFailure(at=100.0, node_id="node000")]
        )
        assert len(scenario.failures) == 1

    def test_failure_validation(self):
        with pytest.raises(ConfigurationError):
            NodeFailure(at=-1.0, node_id="n")
        with pytest.raises(ConfigurationError):
            NodeFailure(at=10.0, node_id="n", restore_at=5.0)

    def test_with_controller_returns_copy(self):
        base = scenario_spec("smoke").materialize()
        changed = base.with_controller(ControllerConfig(control_cycle=42.0))
        assert base.controller.control_cycle != 42.0
        assert changed.controller.control_cycle == 42.0
