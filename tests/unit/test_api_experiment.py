"""Unit tests for the Experiment facade and result export."""

import dataclasses
import json
import math

import pytest

from repro.api import (
    Experiment,
    ScenarioSpec,
    resolve_spec,
    run_experiment,
    scenario_spec,
)
from repro.baselines import FcfsSharedPolicy
from repro.core.milp_solver import MilpPlacementSolver
from repro.errors import ConfigurationError, ModelError
from repro.experiments import run_scenario
from repro.experiments.runner import RESULT_SCHEMA


@pytest.fixture(scope="module")
def short_smoke_result():
    return run_experiment("smoke", overrides={"horizon": 1800.0})


class TestExperiment:
    def test_facade_matches_direct_runner(self):
        """The declarative path reproduces the hand-wired path exactly.

        ``decide_ms_mean`` is the documented wall-clock (nondeterministic)
        metric, so it is compared for presence rather than value.
        """
        direct = run_scenario(
            dataclasses.replace(scenario_spec("smoke", seed=7).materialize(), horizon=1800.0)
        )
        facade = run_experiment("smoke", seed=7, overrides={"horizon": 1800.0})
        a, b = facade.summary_metrics(), direct.summary_metrics()
        assert a.keys() == b.keys()
        assert a["decide_ms_mean"] > 0 and b["decide_ms_mean"] > 0
        for key in a.keys() - {"decide_ms_mean"}:
            # NaN-valued metrics (e.g. time_to_recover_mean without any
            # failure) must match as NaN on both paths.
            if math.isnan(a[key]) or math.isnan(b[key]):
                assert math.isnan(a[key]) and math.isnan(b[key]), key
            else:
                assert a[key] == b[key], key

    def test_json_round_trip_is_metric_identical(self):
        """Acceptance: spec -> JSON -> spec runs byte-identically.

        All metrics except the documented wall-clock one.
        """
        spec = scenario_spec("smoke").with_overrides({"horizon": 1800.0})
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        a = Experiment.from_spec(spec).run().summary_metrics()
        b = Experiment.from_spec(rebuilt).run().summary_metrics()
        for key in a.keys() - {"decide_ms_mean"}:
            assert a[key] == b[key] or (
                math.isnan(a[key]) and math.isnan(b[key])
            ), key

    def test_named_policy_is_used(self):
        exp = Experiment.from_spec(
            "smoke", policy="fcfs", overrides={"horizon": 900.0}
        )
        assert isinstance(exp.spec, ScenarioSpec)
        scenario = exp.materialize()
        from repro.baselines.registry import get_policy

        assert isinstance(get_policy("fcfs")(scenario), FcfsSharedPolicy)
        result = exp.run()
        assert result.cycles > 0

    def test_unknown_policy_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown placement policy"):
            Experiment.from_spec("smoke", policy="nope")

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="smoke"):
            run_experiment("definitely-not-registered")

    def test_resolve_spec_accepts_dict_and_path(self, tmp_path):
        spec = scenario_spec("smoke")
        assert resolve_spec(spec.to_dict()) == spec
        path = spec.save(tmp_path / "smoke.toml")
        assert resolve_spec(path) == spec
        assert resolve_spec(str(path)) == spec

    def test_builder_params_rejected_for_non_name_sources(self, tmp_path):
        spec = scenario_spec("smoke")
        path = spec.save(tmp_path / "smoke.json")
        from repro.api import SpecValidationError

        for source in (spec, spec.to_dict(), path, str(path)):
            with pytest.raises(SpecValidationError, match="registered scenario"):
                resolve_spec(source, seed=99)

    def test_builder_params_forwarded(self):
        spec = Experiment.from_spec("consolidation", scale=0.12, seed=9).spec
        assert spec.seed == 9
        assert spec.materialize().num_nodes == 3


class TestResultExport:
    def test_to_dict_schema(self, short_smoke_result):
        data = short_smoke_result.to_dict()
        assert data["schema"] == RESULT_SCHEMA
        assert data["scenario"]["name"] == "smoke"
        assert data["summary"]["cycles"] == float(short_smoke_result.cycles)
        assert data["recorder"]["schema"] == "repro.recorder/v1"

    def test_to_json_parses_and_recorder_round_trips(self, short_smoke_result):
        payload = json.loads(short_smoke_result.to_json())
        rebuilt = payload["recorder"]["series"]
        original = short_smoke_result.recorder
        assert list(rebuilt) == original.series_names()
        for name in original.series_names():
            assert rebuilt[name]["times"] == list(original.series(name).times)
            assert rebuilt[name]["values"] == list(original.series(name).values)
        assert payload["recorder"]["counters"] == original.counters

    def test_export_csv(self, short_smoke_result, tmp_path):
        paths = short_smoke_result.export_csv(tmp_path / "out")
        series_csv, summary_csv = paths
        series_lines = series_csv.read_text().splitlines()
        assert series_lines[0] == "series,time,value"
        assert len(series_lines) > 10
        summary_lines = summary_csv.read_text().splitlines()
        assert summary_lines[0] == "metric,value"
        metrics = {line.split(",")[0] for line in summary_lines[1:]}
        assert {"tx_utility", "lr_utility", "min_utility", "cycles"} <= metrics

    def test_summary_metrics_match_series(self, short_smoke_result):
        metrics = short_smoke_result.summary_metrics()
        rec = short_smoke_result.recorder
        horizon = short_smoke_result.scenario.horizon
        assert metrics["tx_utility"] == rec.series("tx_utility").time_average(
            0.0, horizon
        )
        assert metrics["min_utility"] == min(
            metrics["tx_utility"], metrics["lr_utility"]
        )

    def test_oracle_series_absent_without_the_knob(self, short_smoke_result):
        # No exact_oracle configured: the gap series must be *absent*
        # (the recorder naming contract), and the summary metric NaN.
        rec = short_smoke_result.recorder
        assert not rec.has_series("optimality_gap")
        assert not rec.has_series("exact_ms")
        assert math.isnan(
            short_smoke_result.summary_metrics()["optimality_gap_mean"]
        )

    def test_exact_oracle_records_gap_telemetry(self):
        result = run_experiment(
            "smoke",
            overrides={
                "horizon": 1800.0,
                "controller.exact_oracle": "milp",
            },
        )
        rec = result.recorder
        assert rec.has_series("optimality_gap")
        assert rec.has_series("exact_ms")
        gaps = rec.series("optimality_gap").values
        assert len(gaps) > 0
        assert all(0.0 <= g <= 1.0 for g in gaps)
        mean = result.summary_metrics()["optimality_gap_mean"]
        assert math.isfinite(mean)
        assert mean == pytest.approx(float(gaps.mean()))
        # Counted only when a solve needed the presolve-off retry.
        assert "milp_retries" not in rec.counters

    def test_oracle_failures_are_counted(self, monkeypatch):
        # A raising oracle leaves its wall time but no gap sample; the
        # counter tells that run apart from one without an oracle.
        def fail(self, *args, **kwargs):
            raise ModelError("oracle failed")

        monkeypatch.setattr(MilpPlacementSolver, "solve", fail)
        result = run_experiment(
            "smoke",
            overrides={"horizon": 3000.0, "controller.exact_oracle": "milp"},
        )
        rec = result.recorder
        assert result.cycles == 11
        assert rec.counter("oracle_failures") == result.cycles
        assert len(rec.series("exact_ms")) == result.cycles
        assert not rec.has_series("optimality_gap")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"controller.exact_oracle": "milp"},
            # Shards run no oracle: count each shard's production solves.
            {"controller.solver.backend": "milp", "controller.shards": 4},
        ],
        ids=["oracle", "shards=4"],
    )
    def test_milp_presolve_retries_are_counted(self, monkeypatch, overrides):
        # HiGHS presolve failing (status 4) on every instance: each
        # solve succeeds on its presolve-off retry.
        from scipy import optimize

        real_milp = optimize.milp
        failed_presolves = []

        def presolve_fails(*args, options, **kwargs):
            if options.get("presolve", True):
                failed_presolves.append(1)
                return optimize.OptimizeResult(status=4, x=None, message="Solve error")
            return real_milp(*args, options=options, **kwargs)

        monkeypatch.setattr(optimize, "milp", presolve_fails)
        result = run_experiment("smoke", overrides={"horizon": 3000.0, **overrides})
        rec = result.recorder
        assert rec.counter("milp_retries") == len(failed_presolves) > 0
        if "controller.exact_oracle" in overrides:
            # One oracle solve per cycle; the greedy solver never retries.
            assert len(rec.series("optimality_gap")) == result.cycles == 11
            assert rec.counter("milp_retries") == result.cycles

