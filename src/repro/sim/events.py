"""Event objects and the pending-event queue.

Events are callbacks scheduled at an absolute simulated time.  Ties are
broken first by an explicit integer ``order`` (lower runs first -- used to
run e.g. job completions before the control cycle at the same instant) and
then by insertion sequence, which makes every run deterministic.

Cancellation is *lazy*: :meth:`Event.cancel` marks the event and the queue
discards it when popped, which keeps the heap operations O(log n).  To
stop long runs with heavy rescheduling (a caller that cancels and
re-creates events faster than they fire) from growing the heap without
bound, the queue counts its cancelled residents and **compacts** -- drops
them and re-heapifies -- whenever they outnumber the live events, keeping
the heap at most ~2x the live population for O(1) amortized cost.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from ..errors import SimulationError
from ..types import Seconds

#: Signature of an event action.  The single argument is the simulated time
#: at which the event fires.
EventAction = Callable[[Seconds], None]

#: Heaps smaller than this are never compacted: rebuilding a dozen-entry
#: list saves nothing and the threshold keeps tiny queues branch-cheap.
_COMPACT_MIN_HEAP = 64


class Event:
    """A scheduled callback.

    Instances are created through :meth:`EventQueue.push` (or the engine's
    ``schedule`` helpers) rather than directly.
    """

    __slots__ = ("time", "order", "seq", "action", "tag", "_cancelled", "_fired", "_queue")

    def __init__(
        self,
        time: Seconds,
        order: int,
        seq: int,
        action: EventAction,
        tag: str = "",
    ) -> None:
        self.time = time
        self.order = order
        self.seq = seq
        self.action = action
        self.tag = tag
        self._cancelled = False
        self._fired = False
        self._queue: Optional["EventQueue"] = None

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the event's action has already run."""
        return self._fired

    def cancel(self) -> None:
        """Mark the event so the queue discards it instead of firing it.

        Cancelling an already-fired event is an error (it indicates the
        caller is holding a stale handle); cancelling twice is idempotent.
        """
        if self._fired:
            raise SimulationError(f"cannot cancel already-fired event {self!r}")
        if self._cancelled:
            return
        self._cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()

    def _sort_key(self) -> tuple[Seconds, int, int]:
        return (self.time, self.order, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self._sort_key() < other._sort_key()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"Event(t={self.time:.3f}, order={self.order}, tag={self.tag!r}, {state})"


class EventQueue:
    """Priority queue of pending :class:`Event` objects."""

    __slots__ = ("_heap", "_counter", "_live", "_cancelled_in_heap")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._live = 0
        self._cancelled_in_heap = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    def push(self, time: Seconds, action: EventAction, *, order: int = 0, tag: str = "") -> Event:
        """Queue ``action`` to fire at absolute ``time`` and return its handle."""
        event = Event(time, order, next(self._counter), action, tag)
        event._queue = self
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def peek_time(self) -> Optional[Seconds]:
        """Time of the next live event, or ``None`` when empty."""
        self._drop_cancelled()
        return self._heap[0].time if self._heap else None

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` when empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        event = heapq.heappop(self._heap)
        self._live -= 1
        # Detach: the event left the heap, so a later cancel() (legal
        # until the action fires) must not touch the queue's accounting.
        event._queue = None
        return event

    def _note_cancelled(self) -> None:
        """Bookkeep one cancellation; compact when the dead outnumber the live.

        Amortized O(1): a compaction costs O(live + cancelled) but only
        runs after at least ``heap/2`` cancellations since the last one.
        """
        self._live -= 1
        self._cancelled_in_heap += 1
        heap = self._heap
        if len(heap) >= _COMPACT_MIN_HEAP and self._cancelled_in_heap * 2 > len(heap):
            self._heap = [event for event in heap if not event._cancelled]
            heapq.heapify(self._heap)
            self._cancelled_in_heap = 0

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0]._cancelled:
            heapq.heappop(heap)._queue = None
            self._cancelled_in_heap -= 1
