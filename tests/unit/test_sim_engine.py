"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import ORDER_COMPLETION, ORDER_CONTROL, Simulator


class TestScheduling:
    def test_at_fires_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.at(5.0, seen.append)
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_after_fires_relative_to_now(self):
        sim = Simulator()
        seen = []
        sim.at(3.0, lambda t: sim.after(2.0, seen.append))
        sim.run()
        assert seen == [5.0]

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.at(10.0, lambda t: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(9.0, lambda t: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda t: None)

    def test_every_repeats_until_bound(self):
        sim = Simulator()
        seen = []
        sim.every(10.0, seen.append, start=0.0, until=35.0)
        sim.run()
        assert seen == [0.0, 10.0, 20.0, 30.0]

    def test_every_default_start_is_one_interval(self):
        sim = Simulator()
        seen = []
        sim.every(4.0, seen.append, until=9.0)
        sim.run()
        assert seen == [4.0, 8.0]

    def test_every_rejects_nonpositive_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda t: None)


class TestExecution:
    def test_run_until_leaves_future_events_queued(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, seen.append)
        sim.at(100.0, seen.append)
        end = sim.run(until=50.0)
        assert seen == [1.0]
        assert end == 50.0
        assert sim.pending == 1

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_completion_fires_before_control_at_same_instant(self):
        sim = Simulator()
        seen = []
        sim.at(5.0, lambda t: seen.append("control"), order=ORDER_CONTROL)
        sim.at(5.0, lambda t: seen.append("completion"), order=ORDER_COMPLETION)
        sim.run()
        assert seen == ["completion", "control"]

    def test_stop_exits_loop(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, lambda t: (seen.append(t), sim.stop()))
        sim.at(2.0, seen.append)
        sim.run()
        assert seen == [1.0]
        assert sim.pending == 1

    def test_max_events_guards_runaway_loops(self):
        sim = Simulator()

        def reschedule(t):
            sim.after(1.0, reschedule)

        sim.at(0.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_trace_hook_sees_every_event(self):
        traced = []
        sim = Simulator(trace=lambda e: traced.append(e.tag))
        sim.at(1.0, lambda t: None, tag="a")
        sim.at(2.0, lambda t: None, tag="b")
        sim.run()
        assert traced == ["a", "b"]

    def test_fired_count_increments(self):
        sim = Simulator()
        for i in range(5):
            sim.at(float(i), lambda t: None)
        sim.run()
        assert sim.fired_count == 5

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested(t):
            sim.run()

        sim.at(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

