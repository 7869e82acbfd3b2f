"""Unit tests for the experiment runner's action enactment.

Drives the runner's internal ``_apply`` machinery with hand-built
actions to cover every enactment path -- including migration, which the
paper scenario exercises only rarely -- and the cost model semantics
(start delays, checkpoint losses, resume delays, migration pauses).
"""

import dataclasses

import pytest

from repro.api import TopologySpec, scenario_spec
from repro.cluster import (
    ActionCosts,
    CpuGrants,
    MigrateVm,
    ResumeVm,
    StartVm,
    StopVm,
    SuspendVm,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import Scenario
from repro.config import ControllerConfig, NoiseConfig
from repro.errors import LifecycleError
from repro.workloads import ConstantProfile, JobPhase

from ..conftest import make_job_spec


def tiny_scenario(**cost_overrides) -> Scenario:
    app = dataclasses.replace(
        scenario_spec("smoke").apps[0],
        profile=ConstantProfile(10.0),
        max_instances=2,
    )
    costs = ActionCosts(**cost_overrides) if cost_overrides else ActionCosts(
        start_delay=10.0, suspend_checkpoint_loss=30.0,
        resume_delay=60.0, migrate_pause=20.0,
    )
    return Scenario(
        name="runner-unit",
        topology=TopologySpec(
            num_nodes=2, processors=4, mhz_per_processor=3000.0, memory_mb=4000.0
        ),
        apps=(app.materialize(),),
        job_specs=(make_job_spec(job_id="j0", work=30_000_000.0, goal=40_000.0),),
        controller=ControllerConfig(),
        costs=costs,
        noise=NoiseConfig(0.0, 0.0, 0.0),
        horizon=10_000.0,
        seed=1,
    )


@pytest.fixture
def runner():
    return ExperimentRunner(tiny_scenario())


def job(runner, job_id="j0"):
    return runner._jobs[job_id]


class TestJobActions:
    def test_start_applies_rate_after_delay(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        assert job(runner).phase is JobPhase.RUNNING
        assert job(runner).rate == 0.0  # still booting
        runner._sim.run(until=10.0)
        assert job(runner).rate == 3000.0

    def test_suspend_charges_checkpoint_loss(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=1000.0)
        job(runner).advance_to(1000.0)
        before = job(runner).remaining_work
        runner._apply(SuspendVm("vm-j0"), t=1000.0)
        # 30 s of progress at 3000 MHz returned to the remaining work.
        assert job(runner).remaining_work == pytest.approx(before + 90_000.0)
        assert job(runner).phase is JobPhase.SUSPENDED

    def test_resume_restores_rate_after_delay(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=100.0)
        runner._apply(SuspendVm("vm-j0"), t=100.0)
        runner._apply(ResumeVm("vm-j0", "node001", 2000.0), t=200.0)
        assert job(runner).node_id == "node001"
        assert job(runner).rate == 0.0
        runner._sim.run(until=260.0)  # resume_delay = 60 s
        assert job(runner).rate == 2000.0

    def test_migrate_pauses_then_continues(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=1000.0)
        runner._apply(MigrateVm("vm-j0", "node000", "node001", 2500.0), t=1000.0)
        assert job(runner).node_id == "node001"
        assert job(runner).rate == 0.0  # stop-and-copy pause
        runner._sim.run(until=1020.0)  # migrate_pause = 20 s
        assert job(runner).rate == 2500.0
        assert job(runner).stats.migrations == 1

    def test_adjust_during_pause_retargets_pending_rate(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        # Before the 10 s start delay elapses, the next decision trims the
        # share; the new rate must apply at the original un-pause time.
        runner._enact([CpuGrants(("vm-j0",), (1200.0,))], t=5.0)
        runner._sim.run(until=10.0)
        assert job(runner).rate == 1200.0

    def test_adjust_running_job(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=50.0)
        runner._enact([CpuGrants(("vm-j0",), (700.0,))], t=50.0)
        assert job(runner).rate == 700.0

    def test_one_record_grants_an_instance_a_running_and_a_paused_job(self):
        scenario = dataclasses.replace(
            tiny_scenario(),
            job_specs=(
                make_job_spec(job_id="j0", work=30_000_000.0, goal=40_000.0),
                make_job_spec(job_id="j1", work=30_000_000.0, goal=40_000.0),
            ),
        )
        runner = ExperimentRunner(scenario)
        runner._apply(StartVm("tx:webapp@node000", "node000", 4000.0), t=0.0)
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=10.0)  # j0's start delay elapses
        runner._apply(StartVm("vm-j1", "node001", 3000.0), t=10.0)
        runner._enact(
            [CpuGrants(("tx:webapp@node000", "vm-j0", "vm-j1"), (2500.0, 1500.0, 1200.0))],
            t=15.0,
        )
        assert runner._apps["webapp"].total_allocation == 2500.0
        assert job(runner, "j0").rate == 1500.0
        assert job(runner, "j0").last_update == 15.0
        assert job(runner, "j1").rate == 0.0  # paused until t=20
        runner._sim.run(until=20.0)
        assert job(runner, "j1").rate == 1200.0

    def test_bad_grant_rejected(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=10.0)
        with pytest.raises(LifecycleError, match="rate must be non-negative"):
            runner._enact([CpuGrants(("vm-j0",), (float("nan"),))], t=20.0)

    def test_stop_cancels_job(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=50.0)
        runner._apply(StopVm("vm-j0"), t=50.0)
        assert job(runner).phase is JobPhase.CANCELLED


class TestInstanceActions:
    def test_start_adjust_stop_instance(self, runner):
        runner._apply(StartVm("tx:webapp@node000", "node000", 4000.0), t=0.0)
        app = runner._apps["webapp"]
        assert app.instance_nodes == ["node000"]
        assert app.total_allocation == 4000.0
        runner._enact([CpuGrants(("tx:webapp@node000",), (2500.0,))], t=1.0)
        assert app.total_allocation == 2500.0
        runner._apply(StartVm("tx:webapp@node001", "node001", 1000.0), t=2.0)
        runner._apply(StopVm("tx:webapp@node000"), t=3.0)
        assert app.instance_nodes == ["node001"]

    def test_cycle_may_move_the_only_instance(self, runner):
        runner._enact([StartVm("tx:webapp@node000", "node000", 1000.0)], t=0.0)
        runner._enact(
            [
                StopVm("tx:webapp@node000"),
                StartVm("tx:webapp@node001", "node001", 1000.0),
            ],
            t=1.0,
        )
        assert runner._apps["webapp"].instance_nodes == ["node001"]

    def test_plan_below_min_instances_raises(self, runner):
        runner._enact([StartVm("tx:webapp@node000", "node000", 1000.0)], t=0.0)
        with pytest.raises(LifecycleError, match="min_instances"):
            runner._enact([StopVm("tx:webapp@node000")], t=1.0)

    def test_malformed_instance_id_rejected(self, runner):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            runner._parse_instance("not-an-instance")


class TestCompletionMachinery:
    def test_completion_fires_at_predicted_time(self):
        runner = ExperimentRunner(tiny_scenario(start_delay=0.0))
        runner.run()
        # 30e6 MHz·s at 3000 MHz = 10 000 s.  Only the last control
        # cycle before it (9600 s) schedules the event: every earlier
        # one predicts a completion past its window.
        assert runner._jobs["j0"].phase is JobPhase.COMPLETED
        assert runner._jobs["j0"].stats.completed_at == pytest.approx(10_000.0)

    def test_completion_beyond_the_next_cycle_schedules_no_event(self):
        runner = ExperimentRunner(tiny_scenario(start_delay=0.0))
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=0.0)  # the rate applies: completion at 10 000 s
        assert runner._jobs["j0"].rate == 3000.0
        assert "j0" not in runner._completion_events
        assert runner._sim.pending == 0

    def test_completion_at_the_next_cycle_fires_before_it(self):
        cycle = ControllerConfig().control_cycle
        scenario = dataclasses.replace(
            tiny_scenario(start_delay=0.0),
            job_specs=(make_job_spec(job_id="j0", work=3000.0 * cycle, goal=40_000.0),),
        )
        runner = ExperimentRunner(scenario)
        seen = {}
        decide = runner._policy.decide

        def spy(t, **kwargs):
            seen[t] = [job.job_id for job in kwargs["jobs"]]
            return decide(t, **kwargs)

        runner._policy.decide = spy
        result = runner.run()
        # Placed at t=0 at its 3000 MHz cap, the job finishes exactly at
        # the second cycle's instant, and that cycle no longer sees it.
        assert runner._jobs["j0"].stats.completed_at == cycle
        assert seen[0.0] == ["j0"]
        assert seen[cycle] == []
        completed = result.recorder.series("jobs_completed_series")
        assert completed.value_at(cycle) == 1.0

    def test_zero_cost_actions_supported(self):
        scenario = tiny_scenario(
            start_delay=0.0, suspend_checkpoint_loss=0.0,
            resume_delay=0.0, migrate_pause=0.0,
        )
        runner = ExperimentRunner(scenario)
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=1.0)
        assert runner._jobs["j0"].rate == 3000.0


class TestPolicyContract:
    def test_policy_missing_a_contract_method_rejected(self):
        class NoDecide:
            def observe_app(self, app_id, *, load, service_cycles=None):
                raise AssertionError("never reached")

        with pytest.raises(TypeError, match="PlacementPolicy"):
            ExperimentRunner(tiny_scenario(), lambda scenario: NoDecide())
