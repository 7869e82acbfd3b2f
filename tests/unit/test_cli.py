"""Tests for the ``python -m repro`` CLI.

``list`` and ``run smoke --horizon 600`` go through a real subprocess
(the ISSUE's end-to-end requirement: the installed module entry point
works from a shell); the remaining subcommands run in-process for speed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import available_scenarios, scenario_spec
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli_subprocess(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )


class TestSubprocessEndToEnd:
    def test_list(self):
        proc = run_cli_subprocess("list")
        assert proc.returncode == 0, proc.stderr
        for name in ("smoke", "paper", "heterogeneous-cluster"):
            assert name in proc.stdout
        for policy in ("utility", "fcfs", "static-partition"):
            assert policy in proc.stdout

    def test_run_smoke_short_horizon(self):
        proc = run_cli_subprocess("run", "smoke", "--horizon", "600")
        assert proc.returncode == 0, proc.stderr
        assert "run 'smoke'" in proc.stdout
        assert "control cycles over 600 s" in proc.stdout

    def test_replicate_then_report_round_trip(self, tmp_path):
        """`repro run --replications` emits a replicated payload and
        `repro report` renders the comparison table from the saved file."""
        out = tmp_path / "replicated.json"
        proc = run_cli_subprocess(
            "run", "smoke", "--horizon", "600",
            "--replications", "3", "--json", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert "replicated 'smoke'" in proc.stdout
        assert "n=3 seeds [7, 8, 9]" in proc.stdout
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.result-replicated/v1"
        assert payload["seeds"] == [7, 8, 9]
        assert payload["aggregates"]["tx_utility"]["n"] == 3

        report = run_cli_subprocess("report", str(out))
        assert report.returncode == 0, report.stderr
        assert "policy" in report.stdout
        assert "utility" in report.stdout
        assert "±" in report.stdout  # mean ± CI cells


class TestInProcess:
    def test_list_names_matches_registry(self, capsys):
        assert main(["list", "--names"]) == 0
        names = capsys.readouterr().out.split()
        assert tuple(names) == available_scenarios()

    def test_run_with_policy_and_set(self, capsys):
        code = main(
            [
                "run", "smoke", "--policy", "fcfs", "--horizon", "600",
                "--set", "controller.control_cycle=300",
            ]
        )
        assert code == 0
        assert "run 'smoke'" in capsys.readouterr().out

    def test_run_spec_file(self, capsys):
        code = main(
            [
                "run", "--spec", str(REPO_ROOT / "examples/specs/smoke.json"),
                "--horizon", "600",
            ]
        )
        assert code == 0
        assert "run 'smoke'" in capsys.readouterr().out

    def test_run_exports_json_and_csv(self, tmp_path, capsys):
        out_json = tmp_path / "result.json"
        out_csv = tmp_path / "csv"
        code = main(
            [
                "run", "smoke", "--horizon", "600",
                "--json", str(out_json), "--csv", str(out_csv),
            ]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out_json.read_text())
        assert payload["schema"] == "repro.result/v1"
        assert (out_csv / "series.csv").exists()
        assert (out_csv / "summary.csv").exists()

    def test_show_round_trips(self, capsys):
        assert main(["show", "smoke"]) == 0
        from repro.api import ScenarioSpec

        spec = ScenarioSpec.from_json(capsys.readouterr().out)
        assert spec == scenario_spec("smoke")

    def test_show_toml(self, capsys):
        assert main(["show", "heterogeneous-cluster", "--format", "toml"]) == 0
        out = capsys.readouterr().out
        assert "[[topology.classes]]" in out

    def test_sweep_serial(self, capsys):
        code = main(
            [
                "sweep", "smoke", "--param", "controller.control_cycle",
                "--values", "300,600", "--horizon", "600",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "controller.control_cycle" in out
        assert "min_utility" in out

    def test_run_replications_with_seeds_and_csv(self, tmp_path, capsys):
        out_json = tmp_path / "rep.json"
        out_csv = tmp_path / "csv"
        code = main(
            [
                "run", "smoke", "--horizon", "600", "--seeds", "3,5",
                "--json", str(out_json), "--csv", str(out_csv),
            ]
        )
        assert code == 0
        assert "n=2 seeds [3, 5]" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert payload["seeds"] == [3, 5]
        assert (out_csv / "aggregates.csv").exists()
        assert (out_csv / "per_seed.csv").exists()

    def test_workers_without_replication_rejected(self):
        with pytest.raises(SystemExit, match="--workers only applies"):
            main(["run", "smoke", "--horizon", "600", "--workers", "2"])

    def test_non_integer_seeds_fail_cleanly(self):
        with pytest.raises(SystemExit, match="--seeds expects"):
            main(["run", "smoke", "--horizon", "600", "--seeds", "1,x"])

    def test_replications_and_seeds_are_exclusive(self, capsys):
        code = main(
            [
                "run", "smoke", "--horizon", "600",
                "--replications", "2", "--seeds", "1,2",
            ]
        )
        assert code == 2
        assert "either seeds or replications" in capsys.readouterr().err

    def test_report_mixed_schemas(self, tmp_path, capsys):
        rep_json = tmp_path / "rep.json"
        single_json = tmp_path / "single.json"
        assert main(
            [
                "run", "smoke", "--horizon", "600", "--replications", "2",
                "--json", str(rep_json),
            ]
        ) == 0
        assert main(
            [
                "run", "smoke", "--horizon", "600", "--policy", "fcfs",
                "--json", str(single_json),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(rep_json), str(single_json)]) == 0
        out = capsys.readouterr().out
        assert "utility" in out and "fcfs" in out
        assert "min_utility" in out

    def test_report_metric_selection(self, tmp_path, capsys):
        rep_json = tmp_path / "rep.json"
        assert main(
            [
                "run", "smoke", "--horizon", "600", "--replications", "2",
                "--json", str(rep_json),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(rep_json), "--metrics", "tx_utility"]) == 0
        out = capsys.readouterr().out
        assert "tx_utility" in out
        assert "mean_tardiness" not in out

    def test_report_unreadable_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot read result file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("run_flags", "field", "corrupt"),
        [
            (
                ["--replications", "2"],
                "per_seed[0].seed",
                lambda data: data["per_seed"][0].update(seed="one"),
            ),
            ([], "scenario.horizon", lambda data: data["scenario"].update(horizon="long")),
        ],
        ids=["replicated-seed", "single-horizon"],
    )
    def test_report_malformed_field_fails_cleanly(
        self, tmp_path, capsys, run_flags, field, corrupt
    ):
        saved = tmp_path / "result.json"
        assert main(
            ["run", "smoke", "--horizon", "600", *run_flags, "--json", str(saved)]
        ) == 0
        data = json.loads(saved.read_text())
        corrupt(data)
        saved.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["report", str(saved)]) == 2
        assert field in capsys.readouterr().err

    def test_unknown_scenario_fails_with_known_names(self, capsys):
        code = main(["run", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "smoke" in err

    def test_unknown_policy_fails(self, capsys):
        code = main(["run", "smoke", "--policy", "nope", "--horizon", "600"])
        assert code == 2
        assert "unknown placement policy" in capsys.readouterr().err

    def test_bad_set_syntax(self):
        with pytest.raises(SystemExit):
            main(["run", "smoke", "--set", "no-equals-sign"])

    def test_scenario_and_spec_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "run", "smoke",
                    "--spec", str(REPO_ROOT / "examples/specs/smoke.json"),
                ]
            )
