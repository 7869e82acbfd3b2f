"""Unit tests for configuration validation."""

import pytest

from repro.config import ControllerConfig, NoiseConfig, SolverConfig
from repro.errors import ConfigurationError


class TestControllerConfig:
    def test_defaults_match_paper(self):
        config = ControllerConfig()
        assert config.control_cycle == 600.0
        assert config.arbiter == "bisection"
        assert config.lr_metric == "mean"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"control_cycle": 0.0},
            {"arbiter": "oracle"},
            {"lr_metric": "median"},
            {"capacity_efficiency": 0.0},
            {"capacity_efficiency": 1.5},
            {"rt_tolerance": 0.0},
            {"estimator_alpha": 0.0},
            {"exact_oracle": ""},
            {"exact_oracle": 7},
            {"exact_oracle_every": 0},
            {"exact_oracle_every": -1},
            {"shards": 0},
            {"shard_workers": 0},
            {"shard_planner": "zone"},
            {"shard_planner": ""},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ControllerConfig(**kwargs)

    def test_exact_oracle_accepts_backend_name(self):
        config = ControllerConfig(exact_oracle="milp", exact_oracle_every=5)
        assert config.exact_oracle == "milp"
        assert config.exact_oracle_every == 5
        assert ControllerConfig().exact_oracle is None

    def test_frozen(self):
        config = ControllerConfig()
        with pytest.raises(AttributeError):
            config.control_cycle = 10.0  # type: ignore[misc]


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_job_rate": -1.0},
            {"change_budget": -1},
            {"eviction_margin": -0.1},
            {"max_evictions": -1},
            {"migration_deficit": 1.5},
            {"max_migrations": -1},
            {"web_start_threshold": 1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolverConfig(**kwargs)

    def test_unlimited_budget_default(self):
        assert SolverConfig().change_budget is None


class TestNoiseConfig:
    def test_zero_noise_allowed(self):
        NoiseConfig(0.0, 0.0, 0.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseConfig(response_time_rel_std=-0.1)


class TestBudgetValidation:
    """``SolverConfig`` is the one owner of the change-budget check."""

    def test_accepts_none_and_nonnegative(self):
        for budget in (None, 0, 5):
            assert SolverConfig(change_budget=budget).change_budget == budget

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError, match="change_budget"):
            SolverConfig(change_budget=-1)
