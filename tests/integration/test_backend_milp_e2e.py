"""End-to-end: the MILP backend driving the full control loop.

``SolverConfig(backend="milp")`` must run through
``UtilityDrivenController.decide`` and the experiment runner exactly
like the greedy default -- same decision shape, valid placements every
cycle, jobs completing.
"""

import pytest

from repro import run_scenario, scenario_spec
from repro.config import ControllerConfig, SolverConfig


@pytest.fixture(scope="module")
def milp_result():
    scenario = scenario_spec("smoke", seed=7).materialize().with_controller(
        ControllerConfig(
            control_cycle=300.0, solver=SolverConfig(backend="milp")
        )
    )
    return run_scenario(scenario)


def test_milp_backend_completes_the_smoke_scenario(milp_result):
    outcomes = milp_result.job_outcomes()
    # The greedy baseline completes 9 jobs inside the smoke horizon; the
    # optimal backend must be in the same league.
    assert outcomes["completed"] >= 8
    assert milp_result.cycles >= 10


def test_milp_backend_final_placement_is_valid(milp_result):
    cluster = milp_result.scenario.topology.build_cluster()
    milp_result.final_placement.validate(cluster)


def test_milp_backend_serves_both_workloads(milp_result):
    rec = milp_result.recorder
    tx = rec.series("tx_utility").values
    assert max(tx) > 0.5  # the web app got meaningful CPU
    assert milp_result.action_log.starts > 0


def test_milp_matches_greedy_on_aggregate_outcome():
    """The optimal backend should do at least as well on completions."""
    greedy = run_scenario(scenario_spec("smoke", seed=7).materialize())
    milp = run_scenario(
        scenario_spec("smoke", seed=7).materialize().with_controller(
            ControllerConfig(
                control_cycle=300.0, solver=SolverConfig(backend="milp")
            )
        )
    )
    g, m = greedy.job_outcomes(), milp.job_outcomes()
    assert m["completed"] >= g["completed"] - 1  # allow one-job slack
