"""Unit tests for reporting and sweep machinery."""

import dataclasses

import numpy as np

import pytest

from repro.api import scenario_spec
from repro.errors import ConfigurationError
from repro.experiments import run_scenario, summarize_run
from repro.experiments.replication import ReplicatedResult, SeedRun
from repro.experiments.report import (
    comparison_table,
    format_aggregate,
    format_table,
    replication_summary,
    replication_table,
)
from repro.experiments.runner import RunInfo
from repro.experiments.sweeps import (
    SweepPointError,
    default_metrics,
    run_sweep,
    sweep_table,
)


@pytest.fixture(scope="module")
def smoke_result():
    return run_scenario(scenario_spec("smoke", seed=7).materialize())


class TestFormatTable:
    def test_alignment_and_separator(self):
        out = format_table(["name", "value"], [["a", 1], ["bbbb", 22]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_indent(self):
        out = format_table(["x"], [["1"]], indent="  ")
        assert all(line.startswith("  ") for line in out.splitlines())


class TestSummaries:
    def test_summarize_run_mentions_key_facts(self, smoke_result):
        text = summarize_run(smoke_result)
        assert "control cycles" in text
        assert "time-avg utility" in text
        assert "jobs:" in text
        assert "actions:" in text

    def test_comparison_table_has_one_row_per_policy(self, smoke_result):
        out = comparison_table({"a": smoke_result, "b": smoke_result})
        lines = out.splitlines()
        assert len(lines) == 4  # header + separator + 2 rows
        assert "min utility" in lines[0]


class TestSweeps:
    def test_sweep_runs_each_grid_point(self):
        def factory(cycle):
            base = scenario_spec("smoke", seed=7).materialize()
            controller = dataclasses.replace(base.controller, control_cycle=float(cycle))
            return base.with_controller(controller)

        sweep = run_sweep("cycles", [300.0, 600.0], factory, default_metrics)
        assert sweep.parameters() == [300.0, 600.0]
        assert len(sweep.metric("tx_utility")) == 2
        assert all(isinstance(v, float) for v in sweep.metric("utility_gap"))

    def test_sweep_table_renders(self):
        def factory(_):
            return scenario_spec("smoke", seed=7).materialize()

        sweep = run_sweep("demo", [1], factory, default_metrics)
        out = sweep_table(sweep, parameter_label="variant")
        assert "variant" in out
        assert "tx_utility" in out

    def test_default_metrics_keys(self, smoke_result):
        metrics = default_metrics(smoke_result)
        assert {
            "tx_utility", "lr_utility", "min_utility", "utility_gap",
            "jobs_completed", "mean_tardiness", "disruptive_actions",
        } <= set(metrics)


def _make_replicated(policy="utility", seeds=(1, 2, 3), scenario="smoke"):
    per_seed = tuple(
        SeedRun(seed, {"tx_utility": 0.5 + 0.01 * i, "min_utility": 0.4 + 0.01 * i})
        for i, seed in enumerate(seeds)
    )
    return ReplicatedResult(
        scenario=RunInfo(
            name=scenario, base_seed=seeds[0], horizon=6000.0, num_nodes=4
        ),
        policy=policy, seeds=tuple(seeds), per_seed=per_seed,
    )


class TestReplicationReport:
    def test_table_one_row_per_policy(self):
        out = replication_table([_make_replicated("utility"), _make_replicated("fcfs")])
        lines = out.splitlines()
        assert len(lines) == 4  # header + separator + 2 rows
        assert lines[0].startswith("policy")
        assert "tx_utility" in lines[0]
        assert "±" in lines[2]

    def test_table_labels_by_scenario_when_mixed(self):
        out = replication_table(
            [
                _make_replicated("utility", scenario="smoke"),
                _make_replicated("utility", scenario="paper"),
            ]
        )
        assert "smoke/utility" in out
        assert "paper/utility" in out

    def test_table_flags_reduced_sample_size(self):
        result = ReplicatedResult(
            scenario=RunInfo(name="smoke", base_seed=1, horizon=6000.0, num_nodes=4),
            policy="utility", seeds=(1, 2, 3),
            per_seed=(
                SeedRun(1, {"tx_utility": 0.5, "on_time_fraction": float("nan")}),
                SeedRun(2, {"tx_utility": 0.6, "on_time_fraction": 1.0}),
                SeedRun(3, {"tx_utility": 0.7, "on_time_fraction": 0.5}),
            ),
        )
        out = replication_table([result])
        assert "[n=2]" in out  # on_time_fraction aggregated 2 of 3 seeds

    def test_table_metric_selection(self):
        out = replication_table([_make_replicated()], metrics=["min_utility"])
        assert "min_utility" in out
        assert "tx_utility" not in out

    def test_empty_results(self):
        assert replication_table([]) == "(no results)"

    def test_summary_mentions_policy_and_seeds(self):
        text = replication_summary(_make_replicated("fcfs", seeds=(5, 6)))
        assert "'fcfs'" in text
        assert "n=2 seeds [5, 6]" in text

    def test_format_aggregate_point_and_interval(self):
        one = _make_replicated(seeds=(1,)).metric("tx_utility")
        assert format_aggregate(one) == "0.5"
        many = _make_replicated().metric("tx_utility")
        assert "±" in format_aggregate(many)


def _seeded_smoke_factory(value):
    """Module-level scenario factory (picklable for worker processes)."""
    return scenario_spec("smoke", seed=int(value)).materialize()


def _exploding_factory(value):
    """Module-level factory (picklable) that fails on 'bad' grid values."""
    if value != 7:
        raise ValueError(f"boom at {value}")
    return scenario_spec("smoke", seed=7).materialize()


class TestSweepFailureReporting:
    def test_serial_failure_names_the_grid_point(self):
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep("explode", [13, 7], _exploding_factory, default_metrics)
        message = str(excinfo.value)
        assert "sweep 'explode'" in message
        assert "grid point 13" in message
        assert "ValueError" in message
        assert "boom at 13" in message

    def test_parallel_failure_names_the_grid_point(self):
        with pytest.raises(SweepPointError, match="grid point 13"):
            run_sweep(
                "explode", [13, 17], _exploding_factory, default_metrics, workers=2
            )

    def test_serial_failure_chains_the_original(self):
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep("explode", [13, 7], _exploding_factory, default_metrics)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_parallel_failure_carries_worker_traceback(self):
        # Exceptions re-raised across a process pool are re-pickled from
        # (type, args) and drop __cause__; the worker traceback must
        # therefore travel inside the message itself.
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(
                "explode", [13, 17], _exploding_factory, default_metrics, workers=2
            )
        message = str(excinfo.value)
        assert "worker traceback" in message
        assert "_exploding_factory" in message  # the failing frame
        assert 'raise ValueError(f"boom at {value}")' in message


class TestParallelSweeps:
    def test_workers_match_serial_results(self):
        grid = [7, 11]
        serial = run_sweep("par", grid, _seeded_smoke_factory, default_metrics)
        parallel = run_sweep(
            "par", grid, _seeded_smoke_factory, default_metrics, workers=2
        )
        assert parallel.parameters() == serial.parameters()
        for key in serial.points[0].metrics:
            if key == "decide_ms_mean":  # documented wall-clock metric
                continue
            # equal_nan: metrics like time_to_recover_mean are NaN when
            # the run saw no failure, on both paths alike.
            assert np.array_equal(
                parallel.metric(key), serial.metric(key), equal_nan=True
            ), key

    def test_invalid_workers_rejected(self):
        # ConfigurationError (a ReproError) so the CLI renders it as a
        # clean `error:` line instead of a traceback.
        with pytest.raises(ConfigurationError):
            run_sweep("bad", [1], _seeded_smoke_factory, default_metrics, workers=0)
