"""Unit tests for the solver-backend registry."""

import pytest

from repro.config import ControllerConfig, SolverConfig
from repro.core import (
    MilpPlacementSolver,
    PlacementSolver,
    available_backends,
    get_backend,
    make_solver,
)
from repro.errors import ConfigurationError


class TestRegistry:
    def test_builtins_registered(self):
        assert "greedy" in available_backends()
        assert "milp" in available_backends()

    def test_make_solver_selects_by_name(self):
        assert isinstance(make_solver(SolverConfig(backend="greedy")),
                          PlacementSolver)
        assert isinstance(make_solver(SolverConfig(backend="milp")),
                          MilpPlacementSolver)

    def test_default_is_greedy(self):
        assert isinstance(make_solver(), PlacementSolver)

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(ConfigurationError, match="greedy"):
            get_backend("simulated-annealing")

    def test_factory_receives_the_config(self):
        config = SolverConfig(backend="milp", change_penalty_mhz=7.0)
        solver = make_solver(config)
        assert solver.config is config


class TestConfigValidation:
    def test_backend_must_be_non_empty(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(backend="")

    def test_change_penalty_must_be_non_negative(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(change_penalty_mhz=-1.0)

    def test_unknown_backend_fails_at_solver_construction(self):
        # Config construction succeeds; make_solver is the enforcement
        # point.
        config = SolverConfig(backend="not-a-backend")
        with pytest.raises(ConfigurationError, match="unknown solver backend"):
            make_solver(config)


class TestControllerWiring:
    def test_controller_uses_configured_backend(self):
        from repro.core.controller import UtilityDrivenController
        from repro.workloads.transactional import TransactionalAppSpec

        spec = TransactionalAppSpec(
            app_id="web", rt_goal=0.4, mean_service_cycles=300.0,
            request_cap_mhz=3000.0, instance_memory_mb=400.0,
            min_instances=1, max_instances=4, model_kind="closed",
            think_time=0.2,
        )
        controller = UtilityDrivenController(
            [spec],
            ControllerConfig(solver=SolverConfig(backend="milp")),
        )
        assert isinstance(controller._solver, MilpPlacementSolver)

        controller = UtilityDrivenController([spec], ControllerConfig())
        assert isinstance(controller._solver, PlacementSolver)

    def test_baselines_pin_the_greedy_solver(self):
        # Baseline disciplines (FCFS ordering etc.) are defined on the
        # greedy's phase structure; the backend knob must not leak in
        # and silently change what the baseline's label means.
        from repro.baselines import FcfsSharedPolicy
        from repro.workloads.transactional import TransactionalAppSpec

        spec = TransactionalAppSpec(
            app_id="web", rt_goal=0.4, mean_service_cycles=300.0,
            request_cap_mhz=3000.0, instance_memory_mb=400.0,
            min_instances=1, max_instances=4, model_kind="closed",
            think_time=0.2,
        )
        baseline = FcfsSharedPolicy(
            [spec], ControllerConfig(solver=SolverConfig(backend="milp"))
        )
        assert isinstance(baseline._solver, PlacementSolver)
