"""Unit tests for the utility-driven controller's decision cycle."""

import pytest

from repro.cluster import Placement, homogeneous_cluster
from repro.config import ControllerConfig
from repro.core import UtilityDrivenController
from repro.errors import UnknownEntityError
from repro.workloads import ConstantProfile, TransactionalAppSpec

from ..conftest import make_job


def app_spec(**overrides) -> TransactionalAppSpec:
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


def make_controller(**config_overrides) -> UtilityDrivenController:
    return UtilityDrivenController([app_spec()], ControllerConfig(**config_overrides))


def decide(controller, jobs, t=0.0, nodes=None, app_nodes=None,
           placement=None):
    cluster = homogeneous_cluster(4)
    return controller.decide(
        t,
        nodes=nodes if nodes is not None else list(cluster),
        jobs=jobs,
        current_placement=placement or Placement(),
        app_nodes=app_nodes or {"web": frozenset()},
    )


class TestObservation:
    def test_observe_then_estimate(self):
        controller = make_controller(estimator_alpha=1.0)
        controller.observe_app("web", load=100.0, service_cycles=310.0)
        assert controller.estimated_load("web") == 100.0

    def test_smoothing_applies(self):
        controller = make_controller(estimator_alpha=0.5)
        controller.observe_app("web", load=100.0)
        controller.observe_app("web", load=200.0)
        assert controller.estimated_load("web") == pytest.approx(150.0)

    def test_unknown_app_rejected(self):
        controller = make_controller()
        with pytest.raises(UnknownEntityError):
            controller.observe_app("ghost", load=1.0)
        with pytest.raises(UnknownEntityError):
            controller.estimated_load("ghost")

    def test_no_observation_means_zero_demand(self):
        controller = make_controller()
        decision = decide(controller, [])
        assert decision.diagnostics.tx_demand == 0.0


class TestDecision:
    def test_places_jobs_and_instances(self):
        controller = make_controller()
        controller.observe_app("web", load=40.0)
        jobs = [make_job(job_id=f"j{i}") for i in range(3)]
        decision = decide(controller, jobs)
        placed_jobs = [e for e in decision.placement
                       if e.vm_id.startswith("vm-")]
        instances = [e for e in decision.placement if e.vm_id.startswith("tx:")]
        assert len(placed_jobs) == 3
        assert len(instances) >= 1
        assert len(decision.actions) >= 4  # three job starts + instance(s)

    def test_utilities_equalized_under_contention(self):
        controller = make_controller()
        controller.observe_app("web", load=70.0)  # demand ~70k on 48k cluster
        jobs = [make_job(job_id=f"j{i}") for i in range(20)]  # demand 60k
        decision = decide(controller, jobs)
        diag = decision.diagnostics
        assert diag.equalized
        assert abs(diag.tx_utility_predicted - diag.lr_utility_mean) < 0.05

    def test_no_jobs_gives_tx_its_demand(self):
        controller = make_controller()
        controller.observe_app("web", load=40.0)
        decision = decide(controller, [])
        assert decision.diagnostics.lr_demand == 0.0
        assert decision.diagnostics.tx_target == pytest.approx(
            decision.diagnostics.tx_demand
        )

    def test_future_jobs_ignored(self):
        controller = make_controller()
        controller.observe_app("web", load=10.0)
        jobs = [make_job(job_id="later", submit=1_000.0)]
        decision = decide(controller, jobs, t=0.0)
        assert decision.diagnostics.population_size == 0

    def test_completed_jobs_ignored(self):
        controller = make_controller()
        controller.observe_app("web", load=10.0)
        done = make_job(job_id="done", work=3000.0)
        done.start(0.0, "node000", 3000.0)
        done.advance_to(1.0)
        done.complete(1.0)
        decision = decide(controller, [done], t=10.0)
        assert decision.diagnostics.population_size == 0

    def test_placement_feasible(self):
        controller = make_controller()
        controller.observe_app("web", load=70.0)
        cluster = homogeneous_cluster(4)
        jobs = [make_job(job_id=f"j{i}") for i in range(30)]
        decision = decide(controller, jobs, nodes=list(cluster))
        decision.placement.validate(cluster)

    def test_suspended_job_resumed_not_started(self):
        controller = make_controller()
        controller.observe_app("web", load=10.0)
        job = make_job(job_id="s")
        job.start(0.0, "node000", 1000.0)
        job.suspend(10.0)
        decision = decide(controller, [job], t=10.0)
        resume_actions = [a for a in decision.actions
                          if type(a).__name__ == "ResumeVm"]
        assert len(resume_actions) == 1


class TestExactOracle:
    def test_disabled_by_default(self):
        import math

        controller = make_controller()
        assert controller._oracle is None
        decision = decide(controller, [make_job(job_id="j1")])
        assert math.isnan(decision.diagnostics.optimality_gap)
        assert math.isnan(decision.diagnostics.exact_ms)

    def test_milp_oracle_reports_gap_and_wall_time(self):
        import math

        controller = make_controller(exact_oracle="milp")
        decision = decide(controller, [make_job(job_id="j1")])
        gap = decision.diagnostics.optimality_gap
        assert math.isfinite(gap)
        # The gap is relative and clamped at zero; on this tiny
        # uncontended instance the greedy answer is optimal.
        assert 0.0 <= gap <= 1.0
        assert decision.diagnostics.exact_ms >= 0.0

    def test_sampling_interval_skips_cycles(self):
        import math

        controller = make_controller(
            exact_oracle="milp", exact_oracle_every=3
        )
        gaps = [
            decide(controller, [make_job(job_id="j1")], t=600.0 * i)
            .diagnostics.optimality_gap
            for i in range(4)
        ]
        # Cycles 0 and 3 sample; 1 and 2 are skipped (NaN).
        assert math.isfinite(gaps[0]) and math.isfinite(gaps[3])
        assert math.isnan(gaps[1]) and math.isnan(gaps[2])

    def test_failure_names_the_exception(self, monkeypatch):
        import math

        from repro.core.milp_solver import MilpPlacementSolver
        from repro.errors import ModelError

        def fail(self, *args, **kwargs):
            raise ModelError("no solution")

        monkeypatch.setattr(MilpPlacementSolver, "solve", fail)
        controller = make_controller(exact_oracle="milp")
        diag = decide(controller, [make_job(job_id="j1")]).diagnostics
        assert diag.oracle_error == "ModelError: no solution"
        assert math.isnan(diag.optimality_gap)
        assert diag.exact_ms >= 0.0

    def test_unknown_oracle_backend_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_controller(exact_oracle="simplex-of-doom")


class TestConfig:
    def test_stealing_arbiter_selectable(self):
        controller = make_controller(arbiter="stealing")
        controller.observe_app("web", load=70.0)
        jobs = [make_job(job_id=f"j{i}") for i in range(20)]
        decision = decide(controller, jobs)
        assert decision.diagnostics.equalized

    def test_level_metric_selectable(self):
        controller = make_controller(lr_metric="level")
        controller.observe_app("web", load=70.0)
        jobs = [make_job(job_id=f"j{i}") for i in range(20)]
        decision = decide(controller, jobs)
        assert decision.diagnostics.equalized
