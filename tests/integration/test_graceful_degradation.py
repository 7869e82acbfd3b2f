"""Acceptance tests for the graceful-degradation control plane.

End to end: a run with an injected controller exception, a strict
deadline or a brownout completes without aborting, records
``fallback:<reason>`` / ``degraded_cycles`` telemetry, and the
fault-free decision stream is unaffected.
"""

import dataclasses
import json
import math

import pytest

from repro.api import run_experiment, scenario_spec
from repro.experiments import run_scenario
from repro.experiments.runner import _mean_time_to_recover, default_policy_factory
from repro.experiments.scenario import NodeBrownout
from repro.sim.recorder import Recorder


class _Flaky:
    """Delegating policy that raises on scripted decide() cycles."""

    def __init__(self, inner, fail_cycles=(2, 4)):
        self.inner = inner
        self.fail_cycles = set(fail_cycles)
        self._cycle = 0

    def observe_app(self, app_id, *, load, service_cycles=None):
        self.inner.observe_app(app_id, load=load, service_cycles=service_cycles)

    def decide(self, t, **kwargs):
        self._cycle += 1
        if self._cycle in self.fail_cycles:
            raise RuntimeError(f"injected failure at cycle {self._cycle}")
        return self.inner.decide(t, **kwargs)


def _flaky_factory(scenario):
    return _Flaky(default_policy_factory(scenario))


def _scrubbed_payload(result):
    """Recorder series + summary without the wall-clock fields."""
    data = json.loads(result.to_json())
    data["summary"].pop("decide_ms_mean", None)
    series = data["recorder"]["series"]
    for name in list(series):
        if name.startswith("stage_ms:") or name.startswith("shard_ms:"):
            del series[name]
    return data["summary"], series


class TestInjectedControllerException:
    @pytest.mark.allow_fallback
    def test_run_completes_and_records_fallback_telemetry(self):
        result = run_scenario(scenario_spec("smoke").materialize(), _flaky_factory)
        rec = result.recorder
        assert rec.counter("degraded_cycles") == 2.0
        assert rec.counter("fallback:exception:RuntimeError") == 2.0
        assert result.summary_metrics()["degraded_cycles"] == 2.0
        # The run still produced the full decision stream.
        assert rec.has_series("tx_utility")

    def test_fault_free_stream_identical_to_unwrapped(self):
        # resilient=True (the default) wraps the policy; with no fault the
        # wrapper must be invisible in the serialized result.
        scenario = scenario_spec("smoke").materialize()
        wrapped = run_scenario(scenario)
        bare = run_scenario(
            dataclasses.replace(
                scenario,
                controller=dataclasses.replace(
                    scenario.controller, resilient=False
                ),
            )
        )
        assert _scrubbed_payload(wrapped) == _scrubbed_payload(bare)


class TestStrictDeadline:
    @pytest.mark.allow_fallback
    def test_every_deadline_fallback_counts_as_an_overrun(self):
        result = run_experiment(
            "smoke",
            overrides={
                "controller.decide_budget_ms": 1e-9,
                "controller.decide_budget_strict": True,
            },
        )
        rec = result.recorder
        assert result.cycles > 0
        assert (
            rec.counter("decide_overruns")
            == rec.counter("degraded_cycles")
            == rec.counter("fallback:deadline")
            == result.cycles
        )


class TestBrownoutTelemetry:
    def test_brownout_fraction_series_tracks_the_event(self):
        scenario = scenario_spec("smoke").materialize().with_brownouts(
            (
                NodeBrownout(
                    at=900.0, node_id="node000", fraction=0.5, restore_at=2100.0
                ),
            )
        )
        result = run_scenario(scenario)
        rec = result.recorder
        assert rec.counter("node_brownouts") == 1.0
        series = rec.series("brownout_fraction")
        # node000 sheds half of 12 GHz out of the 48 GHz cluster: 1/8.
        assert series.value_at(1200.0) == pytest.approx(0.125)
        assert series.value_at(3000.0) == 0.0
        assert result.summary_metrics()["brownout_fraction"] > 0.0

    @pytest.mark.allow_fallback
    def test_degraded_run_keeps_placement_within_browned_capacity(self):
        # A brownout plus an injected exception: the degraded cycle must
        # clamp the last-known-good placement to the derated node.
        scenario = scenario_spec("smoke").materialize().with_brownouts(
            (NodeBrownout(at=900.0, node_id="node000", fraction=0.3),)
        )
        result = run_scenario(scenario, _flaky_factory)
        assert result.recorder.counter("degraded_cycles") == 2.0


class TestTimeToRecover:
    def test_mean_time_to_recover_from_hand_built_recorder(self):
        rec = Recorder()
        rec.record("tx_utility", 0.0, 0.8)
        rec.record("tx_utility", 600.0, 0.5)   # dip after the failure
        rec.record("tx_utility", 1200.0, 0.8)  # re-attains the baseline
        rec.record("lr_utility", 0.0, 0.9)
        rec.record("node_failures_series", 500.0, 1.0)
        assert _mean_time_to_recover(rec) == pytest.approx(700.0)

    def test_never_recovered_is_nan(self):
        rec = Recorder()
        rec.record("tx_utility", 0.0, 0.8)
        rec.record("tx_utility", 600.0, 0.5)
        rec.record("lr_utility", 0.0, 0.9)
        rec.record("node_failures_series", 500.0, 1.0)
        assert math.isnan(_mean_time_to_recover(rec))

    def test_no_failures_is_nan(self):
        rec = Recorder()
        rec.record("tx_utility", 0.0, 0.8)
        rec.record("lr_utility", 0.0, 0.9)
        assert math.isnan(_mean_time_to_recover(rec))
