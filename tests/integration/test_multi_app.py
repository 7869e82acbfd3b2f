"""Integration test: several transactional applications plus jobs.

Exercises the aggregate transactional curve end-to-end: two web
applications with different response-time goals are arbitrated as one
transactional workload whose internal split equalizes the apps'
utilities, while the cross-workload arbiter trades with the jobs.
"""

import dataclasses

import pytest

from repro.api import scenario_spec
from repro.experiments import run_scenario
from repro.experiments.scenario import AppWorkload
from repro.workloads import ConstantProfile, TransactionalAppSpec


def two_app_scenario():
    base = scenario_spec("paper", scale=0.2, seed=21).materialize()
    strict = TransactionalAppSpec(
        app_id="strict-app", rt_goal=0.3, mean_service_cycles=300.0,
        request_cap_mhz=3000.0, instance_memory_mb=200.0,
        min_instances=1, max_instances=5, model_kind="closed", think_time=0.2,
    )
    lenient = TransactionalAppSpec(
        app_id="lenient-app", rt_goal=0.8, mean_service_cycles=300.0,
        request_cap_mhz=3000.0, instance_memory_mb=200.0,
        min_instances=1, max_instances=5, model_kind="closed", think_time=0.2,
    )
    return dataclasses.replace(
        base,
        name="two-apps",
        apps=(
            AppWorkload(strict, ConstantProfile(25.0)),
            AppWorkload(lenient, ConstantProfile(25.0)),
        ),
    )


@pytest.fixture(scope="module")
def result():
    return run_scenario(two_app_scenario())


class TestMultiApp:
    def test_both_apps_served_throughout(self, result):
        rec = result.recorder
        horizon = result.scenario.horizon
        for app_id in ("strict-app", "lenient-app"):
            alloc = rec.series(f"tx_allocation:{app_id}").time_average(0, horizon)
            assert alloc > 0

    def test_app_utilities_equalized_with_each_other(self, result):
        rec = result.recorder
        horizon = result.scenario.horizon
        strict = rec.series("tx_utility:strict-app").time_average(0, horizon)
        lenient = rec.series("tx_utility:lenient-app").time_average(0, horizon)
        # Same utility level despite different goals; the strict app
        # needs (and gets) more CPU per unit of utility.
        assert abs(strict - lenient) < 0.12

    def test_strict_app_costs_more_cpu_for_same_utility(self, result):
        rec = result.recorder
        horizon = result.scenario.horizon
        strict = rec.series("tx_allocation:strict-app").time_average(0, horizon)
        lenient = rec.series("tx_allocation:lenient-app").time_average(0, horizon)
        assert strict > lenient

    def test_cross_workload_equalization_still_holds(self, result):
        rec = result.recorder
        horizon = result.scenario.horizon
        gap = rec.series("utility_gap").time_average(0, horizon)
        assert gap < 0.15

    def test_placement_feasible(self, result):
        result.final_placement.validate(result.scenario.topology.build_cluster())
