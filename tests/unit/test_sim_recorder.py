"""Unit tests for time-series recording."""

import numpy as np
import pytest

from repro.codec import Sample, decode, dumps_json
from repro.errors import SimulationError
from repro.sim.recorder import Recorder, Series


class TestSeries:
    def test_append_and_arrays(self):
        s = Series("x")
        s.append(0.0, 1.0)
        s.append(10.0, 2.0)
        assert np.array_equal(s.times, [0.0, 10.0])
        assert np.array_equal(s.values, [1.0, 2.0])

    def test_same_time_overwrites_last_sample(self):
        s = Series("x")
        s.append(5.0, 1.0)
        s.append(5.0, 9.0)
        assert len(s) == 1
        assert s.values[0] == 9.0

    def test_time_going_backwards_rejected(self):
        s = Series("x")
        s.append(5.0, 1.0)
        with pytest.raises(SimulationError):
            s.append(4.0, 2.0)

    def test_value_at_step_semantics(self):
        s = Series("x")
        s.append(0.0, 1.0)
        s.append(10.0, 2.0)
        assert s.value_at(0.0) == 1.0
        assert s.value_at(9.999) == 1.0
        assert s.value_at(10.0) == 2.0
        assert s.value_at(1e9) == 2.0

    def test_value_at_before_first_sample_rejected(self):
        s = Series("x")
        s.append(5.0, 1.0)
        with pytest.raises(SimulationError):
            s.value_at(4.9)

    def test_value_at_empty_rejected(self):
        with pytest.raises(SimulationError):
            Series("x").value_at(0.0)

    def test_resample_on_grid(self):
        s = Series("x")
        s.append(0.0, 1.0)
        s.append(10.0, 2.0)
        out = s.resample(np.array([0.0, 5.0, 10.0, 15.0]))
        assert np.array_equal(out, [1.0, 1.0, 2.0, 2.0])

    def test_resample_before_first_sample_rejected(self):
        s = Series("x")
        s.append(5.0, 1.0)
        with pytest.raises(SimulationError):
            s.resample(np.array([0.0]))

    def test_time_average_exact_for_step_function(self):
        s = Series("x")
        s.append(0.0, 1.0)
        s.append(10.0, 3.0)
        # [0,10): 1.0, [10,20): 3.0 -> average over [0,20] is 2.0
        assert s.time_average(0.0, 20.0) == pytest.approx(2.0)

    def test_time_average_partial_window(self):
        s = Series("x")
        s.append(0.0, 2.0)
        s.append(10.0, 4.0)
        assert s.time_average(5.0, 15.0) == pytest.approx(3.0)

    def test_time_average_empty_window_rejected(self):
        s = Series("x")
        s.append(0.0, 1.0)
        with pytest.raises(SimulationError):
            s.time_average(5.0, 5.0)


class TestRecorder:
    def test_record_autocreates_series(self):
        rec = Recorder()
        rec.record("u", 0.0, 1.0)
        assert rec.has_series("u")
        assert rec.series("u").values[0] == 1.0

    def test_unknown_series_raises_keyerror(self):
        with pytest.raises(KeyError):
            Recorder().series("nope")

    def test_series_names_sorted(self):
        rec = Recorder()
        rec.record("b", 0.0, 1.0)
        rec.record("a", 0.0, 1.0)
        assert rec.series_names() == ["a", "b"]

    def test_counters(self):
        rec = Recorder()
        rec.bump("done")
        rec.bump("done", 2.0)
        assert rec.counter("done") == 3.0
        assert rec.counter("never") == 0.0
        assert rec.counters == {"done": 3.0}


class TestSerialization:
    """repro.recorder/v1 payloads (documented stable schema)."""

    def _populated(self) -> Recorder:
        rec = Recorder()
        rec.record("tx_utility", 0.0, 0.5)
        rec.record("tx_utility", 600.0, 0.75)
        rec.record("lr_utility", 0.0, 0.25)
        rec.bump("jobs_completed", 3.0)
        return rec

    def test_series_round_trip(self):
        s = Series("x")
        s.append(0.0, 1.0)
        s.append(10.0, -2.5)
        payload = s.to_dict()
        assert np.array_equal(payload["times"], s.times)
        assert np.array_equal(payload["values"], s.values)

    def test_null_samples_become_nan(self):
        import json
        import math

        s = Series("x")
        s.append(0.0, math.nan)
        payload = json.loads(dumps_json(s.to_dict()))
        assert payload["values"] == [None]
        values = decode(tuple[Sample, ...], payload["values"], "x.values")
        assert math.isnan(values[0])

    def test_recorder_round_trip(self):
        rec = self._populated()
        payload = rec.to_dict()
        assert list(payload["series"]) == rec.series_names()
        for name in rec.series_names():
            series = payload["series"][name]
            assert np.array_equal(series["times"], rec.series(name).times)
            assert np.array_equal(series["values"], rec.series(name).values)
        assert payload["counters"] == rec.counters

    def test_schema_tag_present_and_checked(self):
        data = self._populated().to_dict()
        assert data["schema"] == "repro.recorder/v1"

    def test_round_trip_through_json(self):
        import json

        rec = self._populated()
        payload = json.loads(json.dumps(rec.to_dict()))
        assert payload["counters"]["jobs_completed"] == 3.0
        assert payload["series"]["tx_utility"] == {
            "times": [0.0, 600.0],
            "values": [0.5, 0.75],
        }
