"""Integration test: the scaled paper scenario reproduces the figure shapes.

This is the automated FIG1/FIG2 acceptance gate from DESIGN.md, run at
scale 0.2 (5 nodes) to keep the suite fast; the benches exercise the full
25-node run.
"""

import numpy as np
import pytest

from repro.analysis import validate_paper_run
from repro.api import scenario_spec
from repro.experiments import figure1_series, figure2_series, run_scenario


@pytest.fixture(scope="module")
def result():
    return run_scenario(scenario_spec("paper", scale=0.2, seed=42).materialize())


class TestPaperShape:
    def test_all_shape_checks_pass(self, result):
        report = validate_paper_run(result)
        assert report.passed, "\n" + report.summary()

    def test_figure1_series_complete(self, result):
        data = figure1_series(result)
        assert set(data) == {"time", "transactional", "long_running"}
        n = len(data["time"])
        assert n == result.cycles
        assert len(data["transactional"]) == n
        assert len(data["long_running"]) == n

    def test_figure2_series_complete(self, result):
        data = figure2_series(result)
        assert set(data) == {
            "time", "transactional_demand", "long_running_demand",
            "satisfied_transactional", "satisfied_long_running",
        }

    def test_crossover_exists(self, result):
        """The long-running utility starts above/near tx and ends below its
        own start -- the contention ramp of Figure 1."""
        data = figure1_series(result)
        lr = data["long_running"]
        assert lr[0] > 0.6           # uncontended start
        assert np.min(lr) < lr[0] - 0.15

    def test_long_running_demand_ramps(self, result):
        data = figure2_series(result)
        demand = data["long_running_demand"]
        assert demand[-1] > demand[0]
        assert np.max(demand) > 0.5 * (
            result.scenario.num_nodes * 12_000.0
        )

    def test_transactional_demand_roughly_constant(self, result):
        data = figure2_series(result)
        demand = data["transactional_demand"]
        assert np.std(demand) / np.mean(demand) < 0.15

    @pytest.mark.parametrize("seed", [7, 99, 1234])
    def test_core_checks_hold_across_seeds(self, seed):
        """The equalization claims (a, c, e, f) are seed-robust even at
        1/5 scale.  The *trend* checks (b: ramp decline, d: post-drop
        recovery) involve only ~46 job arrivals at this scale and are
        statistically under-powered against Poisson clumping; they are
        asserted on the fixed seed here and at full scale by the FIG1
        bench."""
        other = run_scenario(scenario_spec("paper", scale=0.2, seed=seed).materialize())
        report = validate_paper_run(other)
        core = {"a-initial-plateau", "c-equalization",
                "e-uneven-alloc-even-utility", "f-feasibility"}
        failed = [c for c in report.checks if c.name in core and not c.passed]
        assert not failed, "\n".join(str(c) for c in failed)
