"""Sharded control plane under the full experiment runner.

A node failure inside one shard does not stop the run: shard
assignments are sticky, every cycle of the horizon still decides, jobs
keep completing and the per-shard telemetry keeps flowing.
"""

import math

import pytest

from repro.api import scenario_spec
from repro.config import ControllerConfig
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import NodeFailure

CYCLE = 300.0


def _sharded_smoke(shards, **controller_overrides):
    scenario = scenario_spec("smoke").materialize()
    controller = ControllerConfig(
        control_cycle=CYCLE, shards=shards, **controller_overrides
    )
    return scenario.with_controller(controller)


class TestShardLocalInvalidation:
    def test_run_recovers_after_the_failure(self):
        scenario = _sharded_smoke(2).with_failures(
            [NodeFailure(at=1450.0, node_id="node000")]
        )
        result = run_scenario(scenario)

        assert result.recorder.counter("node_failures") == 1.0
        # The run completed every cycle of the horizon (one at t=0, one
        # per cycle boundary after).
        assert result.cycles == int(scenario.horizon / CYCLE) + 1
        # The simulation still made progress end to end.
        outcomes = result.job_outcomes()
        assert outcomes["completed"] > 0

    def test_shard_series_recorded(self):
        result = run_scenario(_sharded_smoke(2))
        rec = result.recorder
        names = rec.series_names()
        assert "shard_imbalance" in names
        assert "shard_ms:0" in names and "shard_ms:1" in names
        for shard in (0, 1):
            series = rec.series(f"shard_ms:{shard}")
            assert len(series) == result.cycles
            assert all(v >= 0.0 or math.isnan(v) for v in series.values)

    def test_monolithic_run_records_no_shard_series(self):
        result = run_scenario(scenario_spec("smoke").materialize())
        names = result.recorder.series_names()
        assert not [n for n in names if n.startswith("shard_")]
        assert "shard_imbalance" not in names


class TestShardedRunEquivalence:
    def test_sharded_run_matches_monolithic_outcomes_roughly(self):
        """Sharding changes placement details, not viability.

        Not a bit-identity claim (shards solve independently); the run
        must still deliver comparable throughput on the smoke scenario.
        """
        mono = run_scenario(scenario_spec("smoke").materialize())
        sharded = run_scenario(_sharded_smoke(2))
        assert sharded.cycles == mono.cycles
        mono_done = mono.job_outcomes()["completed"]
        sharded_done = sharded.job_outcomes()["completed"]
        assert sharded_done >= 0.5 * mono_done
        # Utility telemetry stays in a sane band.
        summary = sharded.summary_metrics()
        assert 0.0 <= summary["lr_utility"] <= 1.0
