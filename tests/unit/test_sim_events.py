"""Unit tests for events and the pending-event queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue


def noop(t):
    pass


class TestEventOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(3.0, noop)
        q.push(1.0, noop)
        q.push(2.0, noop)
        assert [q.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_order_breaks_time_ties(self):
        q = EventQueue()
        late = q.push(1.0, noop, order=10)
        early = q.push(1.0, noop, order=-10)
        assert q.pop() is early
        assert q.pop() is late

    def test_insertion_sequence_breaks_remaining_ties(self):
        q = EventQueue()
        first = q.push(1.0, noop)
        second = q.push(1.0, noop)
        assert q.pop() is first
        assert q.pop() is second

    def test_peek_time_matches_next_pop(self):
        q = EventQueue()
        q.push(7.0, noop)
        q.push(4.0, noop)
        assert q.peek_time() == 4.0
        assert q.pop().time == 4.0

    def test_empty_queue_returns_none(self):
        q = EventQueue()
        assert q.peek_time() is None
        assert q.pop() is None


class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        victim = q.push(1.0, noop)
        keeper = q.push(2.0, noop)
        victim.cancel()
        assert q.pop() is keeper

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        event = q.push(1.0, noop)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_cancel_fired_event_rejected(self):
        q = EventQueue()
        event = q.push(1.0, noop)
        popped = q.pop()
        popped._fired = True
        with pytest.raises(SimulationError):
            event.cancel()

    def test_len_counts_only_live_events(self):
        q = EventQueue()
        a = q.push(1.0, noop)
        q.push(2.0, noop)
        assert len(q) == 2
        a.cancel()
        q.peek_time()  # triggers lazy cleanup
        assert len(q) == 1

    def test_cancelled_head_does_not_block_peek(self):
        q = EventQueue()
        head = q.push(1.0, noop)
        q.push(5.0, noop)
        head.cancel()
        assert q.peek_time() == 5.0


class TestCompaction:
    def test_mass_cancellation_compacts_heap(self):
        q = EventQueue()
        events = [q.push(float(i), noop) for i in range(1000)]
        for event in events[:900]:
            event.cancel()
        # Cancelled events outnumber live ones, so the heap was rebuilt
        # to hold (roughly) only the survivors.
        assert len(q) == 100
        assert len(q._heap) < 500
        popped = [q.pop().time for _ in range(100)]
        assert popped == [float(i) for i in range(900, 1000)]
        assert q.pop() is None

    def test_len_is_exact_under_interleaved_cancel(self):
        q = EventQueue()
        keep = q.push(2.0, noop)
        victim = q.push(1.0, noop)
        assert len(q) == 2
        victim.cancel()
        assert len(q) == 2 - 1  # exact immediately, no lazy cleanup needed
        assert q.pop() is keep
        assert len(q) == 0

    def test_compaction_preserves_order_and_skips_fired(self):
        q = EventQueue()
        events = [q.push(float(i % 7), noop, order=i % 3) for i in range(256)]
        for i, event in enumerate(events):
            if i % 4:
                event.cancel()
        survivors = [e for i, e in enumerate(events) if i % 4 == 0]
        expected = sorted(survivors, key=lambda e: (e.time, e.order, e.seq))
        got = []
        while (event := q.pop()) is not None:
            got.append(event)
        assert got == expected

    def test_small_heaps_never_compact(self):
        q = EventQueue()
        events = [q.push(float(i), noop) for i in range(10)]
        for event in events[:9]:
            event.cancel()
        assert len(q._heap) == 10  # below the threshold: lazily dropped only
        assert len(q) == 1
        assert q.pop() is events[9]

    def test_cancel_after_pop_leaves_accounting_intact(self):
        q = EventQueue()
        first = q.push(1.0, noop)
        second = q.push(2.0, noop)
        popped = q.pop()
        assert popped is first
        # Legal until the action fires; must not disturb the queue.
        popped.cancel()
        assert len(q) == 1
        assert q.pop() is second
        assert len(q) == 0


#: One queue operation: push at (time, order), cancel the k-th live event,
#: or pop.  Few distinct times and orders make ties the common case.
_OPS = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 5), st.sampled_from([-20, 0, 10])),
    st.tuples(st.just("cancel"), st.integers(0, 10**6)),
    st.tuples(st.just("pop")),
)


class TestHeapOrder:
    """The heap holds ``(time, order, seq, event)`` tuples that ``heapq``
    compares in C; events themselves do not compare."""

    def test_events_do_not_compare(self):
        q = EventQueue()
        a, b = q.push(1.0, noop), q.push(1.0, noop)
        with pytest.raises(TypeError):
            a < b  # noqa: B015 - the comparison itself is the test
        assert not hasattr(Event, "_sort_key")

    @given(st.lists(_OPS, max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_random_pushes_cancels_and_compactions_pop_in_key_order(self, ops):
        q = EventQueue()
        live = []
        for op in ops:
            if op[0] == "push":
                live.append(q.push(float(op[1]), noop, order=op[2]))
            elif op[0] == "cancel" and live:
                live.pop(op[1] % len(live)).cancel()
            elif op[0] == "pop":
                event = q.pop()
                if not live:
                    assert event is None
                    continue
                first = min(live, key=lambda e: (e.time, e.order, e.seq))
                assert event is first
                live.remove(first)
            assert len(q) == len(live)
        key = sorted((e.time, e.order, e.seq) for e in live)
        drained = []
        while (event := q.pop()) is not None:
            drained.append((event.time, event.order, event.seq))
        assert drained == key

    def test_compaction_keeps_the_key_order(self):
        q = EventQueue()
        events = [q.push(float(i % 5), noop, order=(i * 7) % 3) for i in range(300)]
        for event in events[::3] + events[1::3]:
            event.cancel()
        survivors = events[2::3]
        assert len(q._heap) < 300  # compacted
        got = []
        while (event := q.pop()) is not None:
            got.append(event)
        assert got == sorted(survivors, key=lambda e: (e.time, e.order, e.seq))
