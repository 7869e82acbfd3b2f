"""Integration test: SLA goals alone differentiate service classes."""

import dataclasses

import pytest

from repro.analysis import job_outcomes_by_class
from repro.api import scenario_spec
from repro.experiments import run_scenario
from repro.sim import RngRegistry
from repro.workloads import JobTemplate, differentiated_job_trace

GOLD = JobTemplate(
    total_work=9_000.0 * 3000.0, speed_cap_mhz=3000.0, memory_mb=1200.0,
    goal_factor=2.0, job_class="gold",
)
SILVER = JobTemplate(
    total_work=9_000.0 * 3000.0, speed_cap_mhz=3000.0, memory_mb=1200.0,
    goal_factor=6.0, job_class="silver",
)


@pytest.fixture(scope="module")
def result():
    base = scenario_spec("paper", scale=0.2, seed=11).materialize()
    trace = differentiated_job_trace(
        RngRegistry(11).stream("diff-jobs"),
        templates=[(GOLD, 0.5), (SILVER, 0.5)],
        count=60,
        mean_interarrival=520.0,
    )
    scenario = dataclasses.replace(base, job_specs=tuple(trace))
    return run_scenario(scenario)


class TestDifferentiation:
    def test_both_classes_complete_work(self, result):
        by_class = job_outcomes_by_class(result.jobs, result.scenario.horizon)
        assert by_class["gold"].completed >= 10
        assert by_class["silver"].completed >= 10

    def test_gold_flows_much_faster_than_silver(self, result):
        by_class = job_outcomes_by_class(result.jobs, result.scenario.horizon)
        assert by_class["gold"].mean_flow_time < 0.6 * by_class["silver"].mean_flow_time

    def test_utilities_comparable_across_classes(self, result):
        # Equalization targets utility, not flow time: the classes should
        # land in the same utility band despite very different flow times.
        by_class = job_outcomes_by_class(result.jobs, result.scenario.horizon)
        gap = abs(by_class["gold"].mean_utility - by_class["silver"].mean_utility)
        assert gap < 0.25
