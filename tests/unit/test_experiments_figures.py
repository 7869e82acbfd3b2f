"""Unit tests for figure extraction, rendering and CSV export."""

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

