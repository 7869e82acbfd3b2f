"""Per-layer attribution for one traced scenario run.

:class:`LayerTracer` wraps the public functions of each layer of the
``repro`` package from outside the package: it replaces class attributes
and module-level function references with timing or counting wrappers
while it is installed, and puts the originals back when it is removed.
Nothing inside ``src/`` knows it exists.

Every wrapped call is a span.  Spans nest on one stack; a span's *self*
time is its duration minus the durations of the spans it directly
contains, so the self times of all spans add up to the time spent inside
any span, and ``wall - sum(self)`` is the time the tracer did not cover.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable

from repro.cluster.placement import Placement
from repro.core.controller import UtilityDrivenController
from repro.core.resilient import ResilientController
from repro.core.sharded import ShardedController
from repro.perf import jobmodel
from repro.experiments import runner as runner_module
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.recorder import Recorder, Series
from repro.workloads.jobs import Job
from repro.workloads.transactional import TransactionalApp

_JOB_MUTATORS = ("start", "suspend", "migrate", "cancel", "set_rate", "complete")
_APP_MUTATORS = (
    "start_instance",
    "stop_instance",
    "evacuate_node",
    "set_instance_allocation",
)


class LayerTracer:
    """Installs layer spans and counters; use as a context manager."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def span(self, layer: str, fn: Callable, count: str = "") -> Callable:
        """``fn`` wrapped so each call is a span of ``layer``.

        ``count`` names a counter bumped once per call.
        """
        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s
        counts = self.counts

        def traced(*args, **kwargs):
            if count:
                counts[count] += 1
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                total_s[layer] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def counted(self, fn: Callable, count: str) -> Callable:
        """``fn`` wrapped to bump ``count`` per call, without a span."""
        counts = self.counts

        def tallied(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return tallied

    # -- install / remove ---------------------------------------------
    def _replace(self, owner: object, name: str, value: object) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._restore.append((owner, name, original))
        setattr(owner, name, value)

    def _replace_method(self, cls: type, name: str, layer: str, count: str = "") -> None:
        self._replace(cls, name, self.span(layer, cls.__dict__[name], count))

    def _replace_everywhere(self, original: Callable, layer: str, count: str) -> None:
        """Wrap ``original`` in every loaded ``repro`` module that imported it."""
        wrapped = self.span(layer, original, count)
        name = original.__name__
        for module_name, module in sorted(sys.modules.items()):
            if module_name.split(".")[0] == "repro" and getattr(module, name, None) is original:
                self._replace(module, name, wrapped)

    def install(self) -> "LayerTracer":
        span = self.span
        counts = self.counts

        # sim: scheduling, dispatch and recording.
        original_at = Simulator.__dict__["at"]

        def at(sim, time, action, *, order=0, tag=""):
            # Every non-control action is a runner event; the control
            # cycle is wrapped once, where Simulator.every receives it.
            if tag != "control":
                action = span("runner.event", action)
            return original_at(sim, time, action, order=order, tag=tag)

        self._replace(Simulator, "at", span("sim.schedule", at, "sim.events_scheduled"))
        original_every = Simulator.__dict__["every"]

        def every(sim, interval, action, **kwargs):
            return original_every(
                sim, interval, span("runner.bookkeeping", action), **kwargs
            )

        self._replace(Simulator, "every", every)
        original_step = Simulator.__dict__["step"]

        def step(sim):
            fired = original_step(sim)
            if fired:
                counts["sim.events_fired"] += 1
            return fired

        self._replace(Simulator, "step", span("sim.dispatch", step))
        self._replace_method(Simulator, "run", "sim.dispatch")
        original_cancel = Event.__dict__["cancel"]

        def cancel(event):
            if not event.cancelled:
                counts["sim.events_cancelled"] += 1
            return original_cancel(event)

        self._replace(Event, "cancel", span("sim.schedule", cancel))
        self._replace_method(Recorder, "record", "sim.recorder", "sim.recorder_calls")
        self._replace_method(Series, "value_at", "sim.recorder", "sim.recorder_calls")

        # workloads: phase reads, progress integration, mutations.
        phase_get = Job.__dict__["phase"].fget

        def phase(job):
            counts["workloads.phase_reads"] += 1
            return phase_get(job)

        self._replace(Job, "phase", property(phase))
        self._replace(Job, "advance_to", self.counted(Job.advance_to, "workloads.advance_calls"))
        self._replace(
            Job,
            "predicted_completion",
            self.counted(Job.predicted_completion, "workloads.predict_calls"),
        )
        for name in _JOB_MUTATORS:
            self._replace_method(Job, name, "workloads.mutate")
        for name in _APP_MUTATORS:
            self._replace_method(TransactionalApp, name, "workloads.mutate")

        # perf: population snapshots, wherever a module imported them.
        self._replace_everywhere(jobmodel.snapshot_jobs, "perf.snapshot", "perf.snapshot_calls")

        # core.hypothetical, only where the runner's recording step calls it.
        for name in ("mean_hypothetical_utility", "longrunning_max_utility_demand"):
            self._replace(
                runner_module,
                name,
                span("core.hypothetical.record", getattr(runner_module, name)),
            )

        # core: the policy boundary, the guard around it, and validation.
        self._replace_method(ResilientController, "decide", "core.resilient.guard")
        self._replace_method(UtilityDrivenController, "decide", "core.policy")
        self._replace_method(ShardedController, "decide", "core.policy")
        self._replace_method(Placement, "validate", "cluster.validate", "cluster.validate_calls")
        return self

    def remove(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.remove()
