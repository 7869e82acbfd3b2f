"""Unit tests for multi-seed replication.

Covers seed resolution, the fan-out itself (replicated summaries match
independent single runs bit for bit, serial == parallel), the
``repro.result-replicated/v1`` JSON round-trip, CSV export, and
:func:`load_result`'s handling of both result schemas.
"""

import json
import math

import pytest

from repro.api import Experiment, run_experiment, scenario_spec
from repro.codec import SpecValidationError
from repro.errors import ConfigurationError
from repro.experiments.replication import (
    REPLICATED_RESULT_SCHEMA,
    ReplicatedResult,
    SeedRun,
    load_result,
    replicate_spec,
    resolve_seeds,
)
from repro.experiments.runner import RunInfo

#: Smoke spec cut to two control cycles: fast enough to replicate in tests.
def short_smoke():
    return scenario_spec("smoke").with_overrides({"horizon": 1200.0})


@pytest.fixture(scope="module")
def replicated():
    return Experiment.from_spec(short_smoke()).replicate(replications=3)


class TestResolveSeeds:
    def test_consecutive_from_base(self):
        assert resolve_seeds(7, replications=3) == (7, 8, 9)

    def test_explicit_seeds(self):
        assert resolve_seeds(7, seeds=[3, 1, 2]) == (3, 1, 2)

    def test_both_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_seeds(7, seeds=[1], replications=2)

    def test_neither_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_seeds(7)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            resolve_seeds(7, seeds=[1, 2, 1])

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_seeds(7, seeds=[])

    def test_nonpositive_replications_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_seeds(7, replications=0)


class TestReplicate:
    def test_matches_independent_single_runs(self, replicated):
        """Each per-seed summary equals the same seed run standalone."""
        assert replicated.seeds == (7, 8, 9)
        for seed, run in zip(replicated.seeds, replicated.per_seed):
            summary = run.summary
            single = run_experiment(
                short_smoke().with_overrides({"seed": seed})
            ).summary_metrics()
            for key, value in single.items():
                if key == "decide_ms_mean":  # documented wall-clock metric
                    continue
                assert summary[key] == value or (
                    math.isnan(summary[key]) and math.isnan(value)
                ), key

    def test_parallel_matches_serial(self):
        serial = replicate_spec(short_smoke(), replications=2)
        parallel = replicate_spec(short_smoke(), replications=2, workers=2)
        assert parallel.seeds == serial.seeds
        for run_a, run_b in zip(serial.per_seed, parallel.per_seed):
            a, b = run_a.summary, run_b.summary
            for key in a:
                if key == "decide_ms_mean":
                    continue
                assert a[key] == b[key] or (
                    math.isnan(a[key]) and math.isnan(b[key])
                ), key

    def test_aggregates_span_min_max(self, replicated):
        agg = replicated.metric("tx_utility")
        values = [run.summary["tx_utility"] for run in replicated.per_seed]
        assert agg.n == 3
        assert agg.min == min(values)
        assert agg.max == max(values)
        assert agg.ci95_lo <= agg.mean <= agg.ci95_hi

    def test_unknown_metric_fails_by_name(self, replicated):
        with pytest.raises(ConfigurationError, match="unknown metric"):
            replicated.metric("nope")

    def test_policy_threaded_through(self):
        result = Experiment.from_spec(short_smoke(), policy="fcfs").replicate(
            replications=2
        )
        assert result.policy == "fcfs"

    def test_unknown_policy_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown placement policy"):
            replicate_spec(short_smoke(), policy="nope", replications=2)

    def test_requires_a_spec(self):
        with pytest.raises(ConfigurationError, match="ScenarioSpec"):
            replicate_spec("smoke", replications=2)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="align"):
            ReplicatedResult(
                scenario=RunInfo(name="x", base_seed=0, horizon=1.0, num_nodes=1),
                policy="utility", seeds=(1, 2), per_seed=(SeedRun(1, {}),),
            )


class TestSerialization:
    def test_schema_tag_and_layout(self, replicated):
        data = json.loads(replicated.to_json())
        assert data["schema"] == REPLICATED_RESULT_SCHEMA
        assert data["scenario"]["name"] == "smoke"
        assert data["scenario"]["base_seed"] == 7
        assert data["policy"] == "utility"
        assert data["seeds"] == [7, 8, 9]
        assert len(data["per_seed"]) == 3
        assert data["per_seed"][0]["seed"] == 7
        agg = data["aggregates"]["tx_utility"]
        assert set(agg) == {"n", "mean", "std", "ci95_lo", "ci95_hi", "min", "max"}
        assert agg["n"] == 3

    def test_json_round_trip(self, replicated):
        back = ReplicatedResult.from_dict(json.loads(replicated.to_json()))
        assert back.seeds == replicated.seeds
        assert back.policy == replicated.policy
        assert back.scenario.name == replicated.scenario.name
        # Aggregates recompute identically (NaN-bearing metrics excepted
        # by name-level equality of the finite ones).
        for key, agg in replicated.aggregates.items():
            other = back.aggregates[key]
            if math.isnan(agg.mean):
                assert math.isnan(other.mean)
            else:
                assert other == agg

    def test_strict_json_nulls_non_finite(self, replicated):
        # The smoke run completes no jobs at this horizon, so
        # mean_tardiness is NaN -> null under strict JSON.
        text = replicated.to_json()
        json.loads(text)  # strict parse must succeed
        assert "NaN" not in text

    def test_save_load_round_trip(self, replicated, tmp_path):
        path = replicated.save(tmp_path / "result.json")
        back = load_result(path)
        assert back.seeds == replicated.seeds

    def test_from_dict_rejects_wrong_schema(self):
        with pytest.raises(ConfigurationError, match="unsupported result schema"):
            ReplicatedResult.from_dict({"schema": "repro.result/v1"})

    def test_export_csv(self, replicated, tmp_path):
        paths = replicated.export_csv(tmp_path)
        assert [p.name for p in paths] == ["aggregates.csv", "per_seed.csv"]
        agg_lines = paths[0].read_text().splitlines()
        assert agg_lines[0] == "metric,n,mean,std,ci95_lo,ci95_hi,min,max"
        assert any(line.startswith("tx_utility,3,") for line in agg_lines)
        seed_lines = paths[1].read_text().splitlines()
        assert seed_lines[0] == "seed,metric,value"
        # one row per (seed, metric)
        n_metrics = len(replicated.per_seed[0].summary)
        assert len(seed_lines) == 1 + 3 * n_metrics


class TestLoadResult:
    def test_loads_replicated_payload(self, replicated, tmp_path):
        path = replicated.save(tmp_path / "replicated.json")
        assert load_result(path).replications == 3

    def test_single_run_degenerates_to_one_seed(self, tmp_path):
        result = Experiment.from_spec(short_smoke(), policy="fcfs").run()
        path = tmp_path / "single.json"
        path.write_text(result.to_json())
        loaded = load_result(path)
        assert loaded.replications == 1
        assert loaded.policy == "fcfs"
        assert loaded.seeds == (7,)
        agg = loaded.metric("tx_utility")
        assert agg.n == 1
        assert agg.mean == result.summary_metrics()["tx_utility"]
        assert agg.ci95_lo == agg.ci95_hi == agg.mean

    def test_unknown_schema_fails_by_name(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.result/v99"}))
        with pytest.raises(ConfigurationError, match="repro.result/v99"):
            load_result(path)

    def test_missing_file_fails_cleanly(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read result file"):
            load_result(tmp_path / "absent.json")


class TestStrictReads:
    """Malformed saved results fail by dotted path: unknown keys, seeds
    that disagree with the runs, a missing seed or policy."""

    @pytest.fixture(scope="class")
    def single(self):
        return Experiment.from_spec(short_smoke(), policy="fcfs").run().to_dict()

    @staticmethod
    def _load(tmp_path, data):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(data))
        return load_result(path)

    def test_unknown_scenario_key_single(self, single, tmp_path):
        data = {**single, "scenario": {**single["scenario"], "zones": 3}}
        with pytest.raises(SpecValidationError, match=r"^scenario\.zones: unknown"):
            self._load(tmp_path, data)

    def test_unknown_scenario_key_replicated(self, replicated, tmp_path):
        data = replicated.to_dict()
        data["scenario"]["zones"] = 3
        with pytest.raises(
            SpecValidationError, match=r"^result\.scenario\.zones: unknown field"
        ):
            self._load(tmp_path, data)

    def test_single_run_needs_its_seed(self, single, tmp_path):
        scenario = {k: v for k, v in single["scenario"].items() if k != "seed"}
        with pytest.raises(SpecValidationError, match=r"^scenario\.seed: required"):
            self._load(tmp_path, {**single, "scenario": scenario})

    def test_seeds_must_match_per_seed(self, replicated, tmp_path):
        data = replicated.to_dict()
        data["seeds"] = [7, 8, 10]
        with pytest.raises(SpecValidationError, match=r"^result: seeds .* must align"):
            self._load(tmp_path, data)

    def test_missing_policy(self, single, tmp_path):
        data = {key: value for key, value in single.items() if key != "policy"}
        with pytest.raises(SpecValidationError, match=r"^policy: expected a string"):
            self._load(tmp_path, data)

    def test_missing_policy_replicated(self, replicated, tmp_path):
        data = replicated.to_dict()
        del data["policy"]
        with pytest.raises(
            SpecValidationError, match=r"^result\.policy: required field is missing"
        ):
            self._load(tmp_path, data)
