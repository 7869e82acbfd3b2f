"""Unit tests for figure extraction, CSV export and the CLI."""

import numpy as np
import pytest

from repro.api import scenario_spec
from repro.experiments import (
    figure1_series,
    figure2_series,
    render_figure1,
    render_figure2,
    run_scenario,
    write_csv,
)
from repro.experiments.figures import main


@pytest.fixture(scope="module")
def result():
    return run_scenario(scenario_spec("smoke", seed=7).materialize())


class TestSeriesExtraction:
    def test_figure1_shares_time_axis(self, result):
        data = figure1_series(result)
        assert len(data["time"]) == len(data["transactional"])
        assert len(data["time"]) == len(data["long_running"])
        assert np.all(np.diff(data["time"]) > 0)

    def test_figure2_consistent_with_recorder(self, result):
        data = figure2_series(result)
        assert np.array_equal(
            data["satisfied_transactional"],
            result.recorder.series("tx_allocation").values,
        )

    def test_renderings_nonempty(self, result):
        for text in (render_figure1(result), render_figure2(result)):
            assert "Figure" in text
            assert len(text.splitlines()) > 10


class TestCsvExport:
    def test_round_trip(self, result, tmp_path):
        data = figure1_series(result)
        path = tmp_path / "fig1.csv"
        write_csv(data, path)
        loaded = np.loadtxt(path, delimiter=",", skiprows=1)
        assert loaded.shape == (len(data["time"]), 3)
        header = path.read_text().splitlines()[0]
        assert header == "time,transactional,long_running"
        assert np.allclose(loaded[:, 0], data["time"])


class TestCli:
    def test_scaled_run_with_csv(self, tmp_path, capsys):
        code = main([
            "--figure", "both", "--scale", "0.2", "--seed", "42",
            "--csv-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 1" in out
        assert "Shape validation" in out
        assert (tmp_path / "figure1.csv").exists()
        assert (tmp_path / "figure2.csv").exists()

    def test_no_validate_flag(self, capsys):
        code = main(["--figure", "1", "--scale", "0.2", "--no-validate"])
        assert code == 0
        assert "Shape validation" not in capsys.readouterr().out
