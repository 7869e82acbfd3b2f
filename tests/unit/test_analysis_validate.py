"""Unit tests for the shape validator on synthetic runs.

Builds hand-crafted recorder contents that do / do not exhibit the
paper-figure features, so each check's pass and fail behaviour is pinned
without running full experiments.
"""

import numpy as np
import pytest

from repro.analysis import validate_paper_run
from repro.api import scenario_spec
from repro.cluster import ActionLog, Placement
from repro.errors import ShapeValidationError
from repro.experiments.runner import ExperimentResult
from repro.sim import Recorder

HORIZON = 70_000.0
CAPACITY = 4 * 4 * 3000.0  # smoke scenario: 4 nodes x 12 GHz


def synthetic_result(good: bool = True) -> ExperimentResult:
    """A run that (when ``good``) exhibits all six figure features."""
    import dataclasses

    scenario = dataclasses.replace(scenario_spec("smoke").materialize(), horizon=HORIZON)
    rec = Recorder()
    times = np.arange(0.0, HORIZON, 600.0)
    drop = 60_000.0
    for t in times:
        frac = min(t / drop, 1.0)
        if good:
            tx_u = 0.74 - 0.3 * frac if t < drop else 0.52
            lr_u = 0.75 - 0.33 * frac if t < drop else 0.5
            tx_alloc = 0.7 * CAPACITY * (1 - 0.25 * frac)
            tx_alloc = tx_alloc if t < drop else 0.66 * CAPACITY
            lr_demand = 1.4 * CAPACITY * frac if t < drop else 1.1 * CAPACITY
        else:
            # No decline, no equalization, no recovery.
            tx_u = 0.74
            lr_u = 0.2
            tx_alloc = 0.7 * CAPACITY
            lr_demand = 0.2 * CAPACITY
        lr_alloc = min(CAPACITY - tx_alloc, lr_demand)
        tx_demand = 0.7 * CAPACITY
        rec.record("tx_utility", t, tx_u)
        rec.record("lr_utility", t, lr_u)
        rec.record("tx_allocation", t, tx_alloc)
        rec.record("lr_allocation", t, lr_alloc)
        rec.record("tx_demand", t, tx_demand)
        rec.record("lr_demand", t, lr_demand)
        rec.record("tx_demand_est", t, tx_demand)
        rec.record("lr_demand_est", t, lr_demand)
    return ExperimentResult(
        scenario=scenario,
        recorder=rec,
        jobs=[],
        action_log=ActionLog(),
        final_placement=Placement(),
        cycles=len(times),
    )


class TestValidator:
    def test_good_run_passes_all_checks(self):
        report = validate_paper_run(synthetic_result(good=True))
        assert report.passed, report.summary()
        assert len(report.checks) == 6

    def test_bad_run_fails_specific_checks(self):
        report = validate_paper_run(synthetic_result(good=False))
        failed = {c.name for c in report.checks if not c.passed}
        assert "b-lr-decline" in failed
        assert "c-equalization" in failed

    def test_raise_on_failure(self):
        report = validate_paper_run(synthetic_result(good=False))
        with pytest.raises(ShapeValidationError):
            report.raise_on_failure()
        # A passing report raises nothing.
        validate_paper_run(synthetic_result(good=True)).raise_on_failure()

    def test_summary_lists_every_check(self):
        report = validate_paper_run(synthetic_result(good=True))
        text = report.summary()
        for check in report.checks:
            assert check.name in text
