"""End-to-end integration tests on the fast smoke scenario."""

import pytest

from repro.analysis import job_outcome_stats
from repro.api import scenario_spec
from repro.experiments import run_scenario
from repro.workloads import JobPhase


@pytest.fixture(scope="module")
def result():
    return run_scenario(scenario_spec("smoke", seed=7).materialize())


class TestSmokeRun:
    def test_runs_all_cycles(self, result):
        expected = int(result.scenario.horizon // result.scenario.controller.control_cycle) + 1
        assert result.cycles == expected

    def test_jobs_complete_on_time(self, result):
        stats = job_outcome_stats(result.jobs, result.scenario.horizon)
        assert stats.completed >= 5
        assert stats.on_time_fraction >= 0.9

    def test_utilities_equalized_or_satisfied(self, result):
        rec = result.recorder
        horizon = result.scenario.horizon
        tx = rec.series("tx_utility").time_average(0.0, horizon)
        lr = rec.series("lr_utility").time_average(0.0, horizon)
        assert abs(tx - lr) < 0.1

    def test_final_placement_feasible(self, result):
        result.final_placement.validate(result.scenario.build_cluster())

    def test_no_job_left_in_inconsistent_state(self, result):
        for job in result.jobs:
            if job.spec.submit_time > result.scenario.horizon:
                assert job.phase is JobPhase.PENDING
                continue
            assert job.phase in (
                JobPhase.PENDING, JobPhase.RUNNING,
                JobPhase.SUSPENDED, JobPhase.COMPLETED,
            )
            if job.phase is JobPhase.COMPLETED:
                assert job.remaining_work == 0.0
                assert job.stats.completed_at is not None

    def test_completed_jobs_freed_their_placement(self, result):
        completed_vms = {
            j.vm.vm_id for j in result.jobs if j.phase is JobPhase.COMPLETED
        }
        final_vms = {e.vm_id for e in result.final_placement}
        assert not (completed_vms & final_vms)

    def test_allocations_recorded_every_cycle(self, result):
        for name in ("tx_utility", "lr_utility", "tx_allocation", "lr_allocation",
                     "tx_demand", "lr_demand", "changes"):
            assert len(result.recorder.series(name)) == result.cycles

    def test_deterministic_replay(self):
        a = run_scenario(scenario_spec("smoke", seed=7).materialize())
        b = run_scenario(scenario_spec("smoke", seed=7).materialize())
        assert list(a.recorder.series("tx_utility").values) == list(
            b.recorder.series("tx_utility").values
        )
        assert a.action_log.disruptive_total == b.action_log.disruptive_total

    def test_different_seed_differs(self):
        a = run_scenario(scenario_spec("smoke", seed=7).materialize())
        b = run_scenario(scenario_spec("smoke", seed=8).materialize())
        assert list(a.recorder.series("lr_demand").values) != list(
            b.recorder.series("lr_demand").values
        )

    def test_action_accounting_consistent(self, result):
        log = result.action_log
        assert len(log.by_cycle) == result.cycles
        assert log.disruptive_total == sum(log.by_cycle)
        # Every resume pairs with an earlier suspension or displacement.
        assert log.resumptions <= log.suspensions + log.starts
