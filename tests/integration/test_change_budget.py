"""Integration test: bounded placement churn via the change budget.

The incremental-placement lineage the paper builds on (Kimbrel et al.)
bounds the number of placement changes per cycle.  With a tight budget
the controller must still function -- it just converges more slowly and
defers admissions -- and total churn must respect the per-cycle bound.
"""

import pytest

from repro.api import scenario_spec
from repro.config import ControllerConfig, SolverConfig
from repro.experiments import run_scenario


@pytest.fixture(scope="module")
def runs():
    unlimited = scenario_spec("paper", scale=0.2, seed=42).materialize()
    budgeted = unlimited.with_controller(
        ControllerConfig(solver=SolverConfig(change_budget=3))
    )
    return {
        "budget-3": run_scenario(budgeted),
        "unlimited": run_scenario(unlimited),
    }


class TestChangeBudget:
    def test_per_cycle_budget_respected(self, runs):
        result = runs["budget-3"]
        assert max(result.action_log.by_cycle) <= 3

    def test_budget_reduces_total_churn(self, runs):
        assert (
            runs["budget-3"].action_log.disruptive_total
            < runs["unlimited"].action_log.disruptive_total
        )

    def test_system_still_functions_under_budget(self, runs):
        result = runs["budget-3"]
        rec = result.recorder
        horizon = result.scenario.horizon
        # Jobs still run and complete; equalization degrades gracefully.
        assert result.job_outcomes()["completed"] >= 15
        gap = rec.series("utility_gap").time_average(0.0, horizon)
        assert gap < 0.3

    def test_budget_costs_some_utility(self, runs):
        """Flexibility has value: the unlimited controller should do at
        least as well on the minimum utility."""
        def min_u(result):
            rec = result.recorder
            horizon = result.scenario.horizon
            return min(
                rec.series("tx_utility").time_average(0.0, horizon),
                rec.series("lr_utility").time_average(0.0, horizon),
            )

        assert min_u(runs["unlimited"]) >= min_u(runs["budget-3"]) - 0.02
