"""Discrete-event simulation engine.

:class:`Simulator` combines a :class:`~repro.sim.clock.SimClock` with an
:class:`~repro.sim.events.EventQueue` and drives the event loop.  It is a
general-purpose kernel: the data-center experiment runner
(:mod:`repro.experiments.runner`) schedules job arrivals, completions and
control cycles on it, and tests drive it directly.

Event ``order`` conventions used across this library (lower fires first at
equal times)::

    ORDER_COMPLETION (-20)   job completions / departures
    ORDER_ARRIVAL    (-10)   job and request arrivals
    ORDER_DEFAULT      (0)   everything else
    ORDER_CONTROL     (10)   control-cycle decisions (see the state *after*
                             arrivals/completions at the same instant)
    ORDER_RECORD      (20)   metric sampling
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import SimulationError
from ..types import Seconds
from .clock import SimClock
from .events import Event, EventAction, EventQueue

ORDER_COMPLETION = -20
ORDER_ARRIVAL = -10
ORDER_DEFAULT = 0
ORDER_CONTROL = 10
ORDER_RECORD = 20


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start:
        Initial simulated time (seconds).
    trace:
        Optional callback invoked as ``trace(event)`` just before each event
        fires; useful for debugging and for tests asserting event ordering.
    """

    def __init__(
        self,
        start: Seconds = 0.0,
        trace: Optional[Callable[[Event], None]] = None,
    ) -> None:
        self.clock = SimClock(start)
        self.queue = EventQueue()
        self._trace = trace
        self._running = False
        self._stopped = False
        self._fired_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> Seconds:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        return len(self.queue)

    @property
    def fired_count(self) -> int:
        """Total number of events executed so far."""
        return self._fired_count

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: Seconds, action: EventAction, *, order: int = ORDER_DEFAULT, tag: str = "") -> Event:
        """Schedule ``action`` at absolute simulated time ``time``.

        Raises
        ------
        SimulationError
            If ``time`` is in the past.
        """
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event at {time} (now={self.clock.now})"
            )
        return self.queue.push(time, action, order=order, tag=tag)

    def after(self, delay: Seconds, action: EventAction, *, order: int = ORDER_DEFAULT, tag: str = "") -> Event:
        """Schedule ``action`` ``delay`` seconds from now (``delay >= 0``)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.clock.now + delay, action, order=order, tag=tag)

    def every(
        self,
        interval: Seconds,
        action: EventAction,
        *,
        start: Optional[Seconds] = None,
        order: int = ORDER_DEFAULT,
        tag: str = "",
        until: Optional[Seconds] = None,
    ) -> None:
        """Schedule ``action`` periodically every ``interval`` seconds.

        The first firing is at ``start`` (default: one interval from now).
        Recurrence stops when ``until`` (if given) would be exceeded.  The
        callback receives the firing time, like any event action.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval}")
        first = self.clock.now + interval if start is None else start

        def fire(t: Seconds) -> None:
            action(t)
            nxt = t + interval
            if until is None or nxt <= until:
                self.at(nxt, fire, order=order, tag=tag)

        if until is None or first <= until:
            self.at(first, fire, order=order, tag=tag)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event.  Returns ``False`` when none remain."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        if self._trace is not None:
            self._trace(event)
        event._fired = True
        self._fired_count += 1
        event.action(event.time)
        return True

    def run(self, until: Optional[Seconds] = None, max_events: Optional[int] = None) -> Seconds:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed ``until``; the clock is
            left exactly at ``until``.  When omitted, runs until the queue
            drains or :meth:`stop` is called.
        max_events:
            Safety valve: raise :class:`SimulationError` after this many
            events (guards against runaway self-rescheduling loops).

        Returns
        -------
        float
            The simulated time at which the loop stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        fired = 0
        try:
            while not self._stopped:
                next_time = self.queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
                fired += 1
                if max_events is not None and fired > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway event loop?"
                    )
            if until is not None and until > self.clock.now:
                self.clock.advance_to(until)
        finally:
            self._running = False
        return self.clock.now

    def stop(self) -> None:
        """Request the current :meth:`run` loop to exit after this event."""
        self._stopped = True
