"""End-to-end experiment execution.

:class:`ExperimentRunner` wires a :class:`~repro.experiments.scenario.Scenario`
into the discrete-event simulator: it submits jobs, runs the control loop
on schedule, *enacts* the controller's actions with their virtualization
costs (start delays, suspend checkpoint losses, resume delays, migration
pauses), integrates fluid job progress, injects node failures, and records
the time series the paper's figures are built from.

The runner treats the decision maker as a black-box
:class:`PlacementPolicy` -- two methods, ``observe_app`` and ``decide``
-- so the paper's utility-driven controller and every baseline run under
identical conditions.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Protocol, Sequence, runtime_checkable

from ..analysis.stats import job_outcome_stats
from ..cluster.actions import (
    ActionLog,
    AdjustCpu,
    MigrateVm,
    PlacementAction,
    ResumeVm,
    StartVm,
    StopVm,
    SuspendVm,
)
from ..cluster.cluster import Cluster
from ..cluster.node import NodeSpec
from ..cluster.placement import Placement, parse_instance_vm_id
import numpy as np

from ..codec import Sample, dumps_json, encode
from ..core.controller import ControlDecision, UtilityDrivenController
from ..core.resilient import ResilientController
from ..core.sharded import ShardedController
from ..core.hypothetical import (
    longrunning_max_utility_demand,
    mean_hypothetical_utility,
)
from ..errors import SimulationError
from ..netmodel.context import NetworkContext
from ..perf.jobmodel import snapshot_jobs
from ..sim.engine import ORDER_COMPLETION, ORDER_CONTROL, ORDER_DEFAULT, Simulator
from ..sim.events import Event
from ..sim.recorder import Recorder
from ..sim.rng import RngRegistry
from ..types import Seconds
from ..utility.longrunning import JobUtility
from ..utility.transactional import TransactionalUtility
from ..workloads.jobs import Job, JobPhase
from ..workloads.transactional import TransactionalApp
from .scenario import Scenario

#: ``JobPhase.RUNNING`` for the per-job loops of every cycle: a module
#: global is cheaper to read than the enum class attribute.
_RUNNING = JobPhase.RUNNING


@runtime_checkable
class PlacementPolicy(Protocol):
    """The one contract between the runner and a decision maker.

    Implemented by :class:`~repro.core.controller.UtilityDrivenController`
    (and every baseline in :mod:`repro.baselines`, by inheritance),
    :class:`~repro.core.sharded.ShardedController`,
    :class:`~repro.core.resilient.ResilientController` and
    :class:`~repro.faults.chaos.ChaosPolicy`.  A wrapper implements both
    methods by delegating explicitly.
    """

    def observe_app(
        self, app_id: str, *, load: float, service_cycles: Optional[float] = None
    ) -> None:
        """Receive one monitoring sample for a transactional app."""
        ...

    def decide(
        self,
        t: Seconds,
        *,
        nodes: Sequence[NodeSpec],
        jobs: Sequence[Job],
        current_placement: Placement,
        app_nodes: Mapping[str, frozenset[str]],
    ) -> ControlDecision:
        """Produce the cycle's placement decision.

        ``jobs`` are the live jobs: submitted, not completed or
        cancelled, in trace order.

        The runner takes ownership of the returned placement
        (``decision.placement``): it becomes the runner's incumbent,
        handed back as ``current_placement`` next cycle, and the runner
        removes entries from it as jobs complete and nodes fail in
        between.  A policy must not keep or reuse that object.
        """
        ...


#: Factory building a policy for a scenario (lets experiments swap baselines).
PolicyFactory = Callable[[Scenario], PlacementPolicy]

#: Version tag of the serialized experiment-result layout (see
#: :meth:`ExperimentResult.to_dict`).
RESULT_SCHEMA = "repro.result/v1"


@dataclass(frozen=True, kw_only=True)
class RunInfo:
    """The ``scenario`` table of a saved result: which run it describes.

    A single run (``repro.result/v1``) sets ``seed``; a replication
    (``repro.result-replicated/v1``) sets ``base_seed``.  The codec omits
    the one left ``None``, so each layout keeps its own key.
    """

    name: str
    seed: Optional[int] = None
    base_seed: Optional[int] = None
    horizon: Sample
    num_nodes: int


def default_policy_factory(scenario: Scenario) -> PlacementPolicy:
    """The paper's controller with the scenario's configuration.

    ``ControllerConfig.shards > 1`` selects the sharded hierarchical
    control plane (:class:`repro.core.sharded.ShardedController`); the
    monolithic controller otherwise.  A scenario with a network topology
    hands the controller a :class:`~repro.netmodel.context.NetworkContext`
    (the latency-aware objective only engages when
    ``controller.latency_weight > 0``).
    """
    specs = [workload.spec for workload in scenario.apps]
    network = (
        NetworkContext(scenario.network, scenario.topology.zone_map())
        if scenario.network is not None
        else None
    )
    if scenario.controller.shards > 1:
        return ShardedController(specs, scenario.controller, network=network)
    return UtilityDrivenController(specs, scenario.controller, network=network)


@dataclass
class ExperimentResult:
    """Everything an experiment produced."""

    scenario: Scenario
    recorder: Recorder
    jobs: list[Job]
    action_log: ActionLog
    final_placement: Placement
    cycles: int
    #: Registry name of the policy that produced the result, when known
    #: (set by :meth:`repro.api.experiment.Experiment.run`; ``None`` for
    #: hand-wired :class:`ExperimentRunner` invocations).
    policy: Optional[str] = None

    def job_outcomes(self) -> dict[str, float]:
        """Aggregate SLA outcomes over *completed* jobs.

        Counts every trace job as submitted (no horizon filter); the
        horizon-filtered view lives in :meth:`summary_metrics`.  Both
        delegate to :func:`repro.analysis.stats.job_outcome_stats` so
        the definitions cannot drift.
        """
        stats = job_outcome_stats(self.jobs)
        return {
            "completed": float(stats.completed),
            "submitted": float(stats.submitted),
            "mean_utility": stats.mean_utility,
            "on_time_fraction": stats.on_time_fraction,
            "mean_tardiness": stats.mean_tardiness,
        }

    # ------------------------------------------------------------------
    # Export (stable repro.result/v1 schema)
    # ------------------------------------------------------------------
    def summary_metrics(self) -> dict[str, float]:
        """Scalar run summary: time-averaged utilities, outcomes, churn.

        The metric set is stable (new keys may be appended, existing keys
        keep their meaning): ``tx_utility`` / ``lr_utility`` /
        ``min_utility`` / ``utility_gap`` are time averages over the full
        horizon; ``jobs_*``, ``on_time_fraction``, ``mean_tardiness`` and
        ``mean_job_utility`` aggregate completed-job outcomes
        (``jobs_submitted`` counts jobs that entered before the horizon,
        not trace jobs that never ran); ``disruptive_actions`` counts
        budget-relevant placement changes; ``cycles`` counts control
        cycles.

        Control-plane telemetry (policies running the incremental control
        plane only; NaN otherwise): ``warm_cycle_fraction`` is the
        share of cycles whose first solve the previous cycle's level
        seeded, ``eq_cache_hit_rate`` the fraction of consumed-curve
        lookups the equalizer's memo served, and ``decide_ms_mean`` the
        mean decide() wall-time per cycle -- the one *nondeterministic*
        metric in this set (wall-clock).

        Degradation telemetry: ``degraded_cycles`` counts cycles that
        fell back to the last-known-good placement,
        ``brownout_fraction`` is the time-averaged share of active
        nominal CPU shed by brownouts (0.0 without brownouts), and
        ``time_to_recover_mean`` averages, over failure episodes, the
        time from the failure instant until the minimum of the two
        workload utilities re-attains its pre-failure level (NaN when no
        failure occurred or none recovered within the horizon).

        Exact-oracle telemetry (runs with the ``exact_oracle``
        controller knob only; NaN otherwise): ``optimality_gap_mean``
        averages the background oracle's per-cycle relative gap between
        the production solver's satisfied demand and the exact optimum
        of the same instance.

        Network telemetry (scenarios declaring a zone topology only; NaN
        otherwise): ``rt_network_mean`` is the time-averaged mean
        expected network RTT (s) across apps, ``in_zone_fraction`` the
        time-averaged user mass served from its own zone, and
        ``latency_sla_attainment`` the time-averaged fraction of apps
        whose end-to-end (queueing + network) response time met the
        response-time goal.
        """
        rec = self.recorder
        horizon = self.scenario.horizon
        outcome = job_outcome_stats(self.jobs, horizon)
        tx_u = rec.series("tx_utility").time_average(0.0, horizon)
        lr_u = rec.series("lr_utility").time_average(0.0, horizon)
        telem_cycles = rec.counter("warm_cycles") + rec.counter("cold_cycles")
        eq_lookups = rec.counter("eq_evals_total") + rec.counter("eq_cache_hits_total")
        if rec.has_series("stage_ms:total"):
            decide_ms = float(rec.series("stage_ms:total").values.mean())
        else:
            decide_ms = math.nan
        return {
            "tx_utility": tx_u,
            "lr_utility": lr_u,
            "min_utility": min(tx_u, lr_u),
            "utility_gap": rec.series("utility_gap").time_average(0.0, horizon),
            "jobs_completed": float(outcome.completed),
            "jobs_submitted": float(outcome.submitted),
            "on_time_fraction": outcome.on_time_fraction,
            "mean_tardiness": outcome.mean_tardiness,
            "mean_job_utility": outcome.mean_utility,
            "disruptive_actions": float(self.action_log.disruptive_total),
            "cycles": float(self.cycles),
            "warm_cycle_fraction": (
                rec.counter("warm_cycles") / telem_cycles
                if telem_cycles
                else math.nan
            ),
            "eq_cache_hit_rate": (
                rec.counter("eq_cache_hits_total") / eq_lookups
                if eq_lookups
                else math.nan
            ),
            "decide_ms_mean": decide_ms,
            "degraded_cycles": float(rec.counter("degraded_cycles")),
            "brownout_fraction": (
                rec.series("brownout_fraction").time_average(0.0, horizon)
                if rec.has_series("brownout_fraction")
                else 0.0
            ),
            "time_to_recover_mean": _mean_time_to_recover(rec),
            "optimality_gap_mean": (
                float(rec.series("optimality_gap").values.mean())
                if rec.has_series("optimality_gap")
                else math.nan
            ),
            "rt_network_mean": (
                rec.series("rt_network_mean").time_average(0.0, horizon)
                if rec.has_series("rt_network_mean")
                else math.nan
            ),
            "in_zone_fraction": (
                rec.series("in_zone_fraction").time_average(0.0, horizon)
                if rec.has_series("in_zone_fraction")
                else math.nan
            ),
            "latency_sla_attainment": (
                rec.series("latency_sla_attainment").time_average(0.0, horizon)
                if rec.has_series("latency_sla_attainment")
                else math.nan
            ),
        }

    def to_dict(self) -> dict[str, object]:
        """Serializable result in the stable ``repro.result/v1`` schema::

            {
              "schema": "repro.result/v1",
              "scenario": {"name", "seed", "horizon", "num_nodes"},
              "policy": <registry name>,          # when known
              "cycles": <int>,
              "summary": {<summary_metrics()>},
              "recorder": {<Recorder.to_dict(), repro.recorder/v1>}
            }
        """
        info = RunInfo(
            name=self.scenario.name,
            seed=self.scenario.seed,
            horizon=self.scenario.horizon,
            num_nodes=self.scenario.num_nodes,
        )
        data: dict[str, object] = {"schema": RESULT_SCHEMA, "scenario": encode(info)}
        if self.policy is not None:
            data["policy"] = self.policy
        data.update(
            cycles=self.cycles,
            summary=self.summary_metrics(),
            recorder=self.recorder.to_dict(),
        )
        return data

    def to_json(self) -> str:
        """:meth:`to_dict` rendered by :func:`repro.codec.dumps_json`.

        Non-finite metrics (e.g. ``mean_tardiness`` when no job
        completed) serialize as ``null`` so any JSON parser can read the
        export; :func:`~repro.experiments.replication.load_result` reads
        the summary's ``null`` back as NaN.
        """
        return dumps_json(self.to_dict())

    def export_csv(self, directory: str | Path) -> list[Path]:
        """Write ``series.csv`` (long format: series,time,value) and
        ``summary.csv`` (metric,value) under ``directory``; returns the
        written paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        series_path = directory / "series.csv"
        with series_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series", "time", "value"])
            for name in self.recorder.series_names():
                series = self.recorder.series(name)
                for t, v in zip(series.times, series.values):
                    writer.writerow([name, repr(float(t)), repr(float(v))])
        summary_path = directory / "summary.csv"
        with summary_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "value"])
            for key, value in self.summary_metrics().items():
                writer.writerow([key, repr(float(value))])
        return [series_path, summary_path]


def _mean_time_to_recover(rec: Recorder) -> float:
    """Mean failure-to-SLA-re-attainment time over recovery episodes.

    For every failure instant ``f`` (the ``node_failures_series`` sample
    times -- simultaneous zone-outage failures collapse into one
    episode), the pre-failure SLA level is the last recorded
    ``min(tx_utility, lr_utility)`` at or before ``f``; the episode
    recovers at the first later cycle whose min-utility reaches that
    level again (small tolerance for float noise).  NaN when there were
    no failures, no pre-failure sample, or no episode recovered.
    """
    if not rec.has_series("node_failures_series") or not rec.has_series(
        "tx_utility"
    ):
        return math.nan
    tx = rec.series("tx_utility")
    lr = rec.series("lr_utility")
    times = tx.times
    if times.size == 0:
        return math.nan
    min_utility = np.minimum(tx.values, lr.resample(times))
    recovered: list[float] = []
    for f in rec.series("node_failures_series").times:
        before = np.flatnonzero(times <= f)
        if before.size == 0:
            continue
        baseline = min_utility[before[-1]]
        if not math.isfinite(baseline):
            continue
        hits = np.flatnonzero((times > f) & (min_utility >= baseline - 1e-9))
        if hits.size:
            recovered.append(float(times[hits[0]] - f))
    return float(np.mean(recovered)) if recovered else math.nan


class ExperimentRunner:
    """Runs one scenario under one placement policy.

    Per-cycle work follows the live jobs, not the whole trace: the runner
    keeps the submitted, non-terminal jobs in trace order, hands only
    those to ``decide()`` and scans only those, and creates a completion
    event only for a completion that can fire before the next control
    cycle.  Both leave every simulated outcome bit-identical.
    """

    def __init__(
        self,
        scenario: Scenario,
        policy_factory: Optional[PolicyFactory] = None,
    ) -> None:
        self.scenario = scenario
        policy = (policy_factory or default_policy_factory)(scenario)
        if not isinstance(policy, PlacementPolicy):
            raise TypeError(
                f"{type(policy).__name__} does not implement PlacementPolicy "
                "(observe_app, decide)"
            )
        if scenario.controller.resilient and not isinstance(
            policy, ResilientController
        ):
            # Graceful degradation around *any* policy: feasibility-guard
            # every decision and fall back to the last-known-good
            # placement instead of aborting the run (see
            # repro.core.resilient).  The success path is untouched, so
            # fault-free runs stay bit-identical to unwrapped ones.
            policy = ResilientController(policy, scenario.controller)
        self._policy = policy
        self._rngs = RngRegistry(scenario.seed)
        self._sim = Simulator()
        self._cluster: Cluster = scenario.topology.build_cluster()
        self._apps: dict[str, TransactionalApp] = {
            w.spec.app_id: TransactionalApp(w.spec, w.profile)
            for w in scenario.apps
        }
        self._tx_utilities = {
            w.spec.app_id: TransactionalUtility(w.spec.rt_goal) for w in scenario.apps
        }
        self._jobs: dict[str, Job] = {
            spec.job_id: Job(spec) for spec in scenario.job_specs
        }
        self._vm_to_job: dict[str, str] = {
            job.vm_id: job_id for job_id, job in self._jobs.items()
        }
        # The live set: submitted jobs that are not completed or
        # cancelled, in trace order.  Jobs enter it from the arrival list
        # (stable by submit time, so ties keep trace order) at the first
        # control cycle at or after their submission and leave it on
        # completion or a StopVm.
        self._trace_rank = {job_id: rank for rank, job_id in enumerate(self._jobs)}
        self._arrivals = sorted(self._jobs.values(), key=lambda j: j.spec.submit_time)
        self._next_arrival = 0
        self._live: dict[str, Job] = {}
        self._placement = Placement()
        self._completion_events: dict[str, Event] = {}
        self._rate_events: dict[str, Event] = {}
        self._recorder = Recorder()
        self._action_log = ActionLog()
        self._cycles = 0
        self._measure_rng = self._rngs.stream("measurement-noise")
        # Network telemetry is recorded whenever the scenario declares a
        # topology -- independent of ``latency_weight``, so a latency-
        # blind baseline run still reports locality and attainment.
        self._network_ctx = (
            NetworkContext(scenario.network, scenario.topology.zone_map())
            if scenario.network is not None
            else None
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> ExperimentResult:
        """Execute the scenario to its horizon and return the result."""
        scenario = self.scenario
        # Control cycles: first at t=0 (jobs present at t=0 get placed then).
        self._sim.every(
            scenario.controller.control_cycle,
            self._control_cycle,
            start=0.0,
            order=ORDER_CONTROL,
            tag="control",
            until=scenario.horizon,
        )
        for failure in scenario.failures:
            self._sim.at(
                failure.at,
                lambda t, nid=failure.node_id: self._fail_node(t, nid),
                order=ORDER_DEFAULT,
                tag="node-failure",
            )
            if failure.restore_at is not None:
                self._sim.at(
                    failure.restore_at,
                    lambda t, nid=failure.node_id: self._cluster.restore_node(nid),
                    order=ORDER_DEFAULT,
                    tag="node-restore",
                )
        for brownout in scenario.brownouts:
            self._sim.at(
                brownout.at,
                lambda t, b=brownout: self._begin_brownout(t, b),
                order=ORDER_DEFAULT,
                tag="node-brownout",
            )
            if brownout.restore_at is not None:
                self._sim.at(
                    brownout.restore_at,
                    lambda t, nid=brownout.node_id: self._cluster.clear_brownout(nid),
                    order=ORDER_DEFAULT,
                    tag="node-brownout-end",
                )
        self._sim.run(until=scenario.horizon)
        return ExperimentResult(
            scenario=scenario,
            recorder=self._recorder,
            jobs=list(self._jobs.values()),
            action_log=self._action_log,
            final_placement=self._placement,
            cycles=self._cycles,
        )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _control_cycle(self, t: Seconds) -> None:
        self._admit_arrivals(t)
        self._advance_running_jobs(t)
        self._feed_observations(t)
        decision = self._policy.decide(
            t,
            nodes=self._cluster.active_nodes(),
            jobs=list(self._live.values()),
            current_placement=self._placement,
            app_nodes=self._app_nodes(),
        )
        decision.placement.validate(self._cluster)
        self._enact(decision.actions, t)
        self._action_log.count(decision.actions)
        # The runner owns the decided placement from here on: completions
        # and failures remove entries from it (see PlacementPolicy.decide).
        self._placement = decision.placement
        self._reschedule_completions(t)
        self._record(t, decision)
        self._cycles += 1

    def _admit_arrivals(self, t: Seconds) -> None:
        """Move every job submitted by ``t`` into the live set.

        The live set stays in trace order, because the population
        snapshot's column order fixes the order of its float sums: an
        arrival that precedes the last live job in the trace (a trace
        not sorted by submit time) re-sorts it.
        """
        arrivals, live, rank = self._arrivals, self._live, self._trace_rank
        resort = False
        i = self._next_arrival
        while i < len(arrivals) and arrivals[i].spec.submit_time <= t:
            job = arrivals[i]
            i += 1
            if not job.is_incomplete:
                continue
            if live and not resort:
                resort = rank[job.job_id] < rank[next(reversed(live))]
            live[job.job_id] = job
        self._next_arrival = i
        if resort:
            self._live = dict(sorted(live.items(), key=lambda item: rank[item[0]]))

    def _advance_running_jobs(self, t: Seconds) -> None:
        for job in self._live.values():
            if job.phase is _RUNNING:
                job.advance_to(t)

    def _feed_observations(self, t: Seconds) -> None:
        noise = self.scenario.noise
        for app_id in sorted(self._apps):
            app = self._apps[app_id]
            true_load = app.arrival_rate(t)
            observed_load = true_load * self._lognoise(noise.throughput_rel_std)
            observed_cycles = app.spec.mean_service_cycles * self._lognoise(
                noise.service_cycles_rel_std
            )
            self._policy.observe_app(
                app_id, load=observed_load, service_cycles=observed_cycles
            )

    # ------------------------------------------------------------------
    # Action enactment
    # ------------------------------------------------------------------
    def _enact(self, actions: Sequence[PlacementAction], t: Seconds) -> None:
        """Apply one cycle's actions in plan order.

        Each app's instance bounds are checked on the instance set the
        cycle leaves, not after every action: the plan stops a moved
        instance before starting its replacement.
        """
        with contextlib.ExitStack() as cycle:
            for app in self._apps.values():
                cycle.enter_context(app.instance_changes())
            for action in actions:
                self._apply(action, t)

    def _apply(self, action: PlacementAction, t: Seconds) -> None:
        # Dispatch on the exact action type, CPU adjustments first: they
        # are nearly every action of a cycle.
        kind = type(action)
        costs = self.scenario.costs
        if kind is AdjustCpu:
            job_id = self._vm_to_job.get(action.vm_id)
            if job_id is None:
                app_id, node_id = self._parse_instance(action.vm_id)
                self._apps[app_id].set_instance_allocation(node_id, action.cpu_mhz)
            elif job_id in self._rate_events:
                # Still in a start/resume/migrate pause: retarget the
                # pending rate instead of applying it early.
                pending = self._rate_events.pop(job_id)
                when = pending.time
                pending.cancel()
                self._schedule_rate(self._jobs[job_id], when, action.cpu_mhz)
            else:
                self._jobs[job_id].set_rate(t, action.cpu_mhz)
        elif kind is StartVm:
            if action.vm_id in self._vm_to_job:
                job = self._job_of(action.vm_id)
                job.start(t, action.node_id, 0.0)
                self._schedule_rate(job, t + costs.start_delay, action.cpu_mhz)
            else:
                app_id, node_id = self._parse_instance(action.vm_id)
                self._apps[app_id].start_instance(t, node_id, action.cpu_mhz)
        elif kind is StopVm:
            if action.vm_id in self._vm_to_job:
                job_id = self._vm_to_job[action.vm_id]
                self._cancel_events(job_id)
                self._jobs[job_id].cancel(t)
                self._live.pop(job_id, None)
            else:
                app_id, node_id = self._parse_instance(action.vm_id)
                self._apps[app_id].stop_instance(node_id)
        elif kind is SuspendVm:
            job = self._job_of(action.vm_id)
            self._cancel_events(job.job_id)
            loss = costs.suspend_checkpoint_loss * job.rate
            job.suspend(t, work_lost=loss)
        elif kind is ResumeVm:
            job = self._job_of(action.vm_id)
            self._cancel_events(job.job_id)
            job.start(t, action.node_id, 0.0)
            self._schedule_rate(job, t + costs.resume_delay, action.cpu_mhz)
        elif kind is MigrateVm:
            job = self._job_of(action.vm_id)
            self._cancel_events(job.job_id)
            job.migrate(t, action.dst_node_id, 0.0)
            self._schedule_rate(job, t + costs.migrate_pause, action.cpu_mhz)
        else:  # pragma: no cover - exhaustive over the action union
            raise SimulationError(f"unknown action {action!r}")

    def _schedule_rate(self, job: Job, when: Seconds, rate: float) -> None:
        def fire(t2: Seconds, job_id: str = job.job_id) -> None:
            self._rate_events.pop(job_id, None)
            target = self._jobs[job_id]
            if target.phase is not JobPhase.RUNNING:
                return  # suspended/failed in the meantime
            target.set_rate(t2, rate)
            self._schedule_completion(target, t2)

        self._rate_events[job.job_id] = self._sim.at(
            when, fire, order=ORDER_DEFAULT, tag=f"rate:{job.job_id}"
        )

    def _cancel_events(self, job_id: str) -> None:
        for registry in (self._completion_events, self._rate_events):
            event = registry.pop(job_id, None)
            if event is not None and not event.fired:
                event.cancel()

    # ------------------------------------------------------------------
    # Completions
    # ------------------------------------------------------------------
    def _reschedule_completions(self, t: Seconds) -> None:
        # Sorted by job id, not trace order: the order fixes the tie
        # order of simultaneous completions (``job10000`` < ``job9999``).
        live = self._live
        for job_id in sorted(live):
            job = live[job_id]
            if job.phase is _RUNNING and job_id not in self._rate_events:
                self._schedule_completion(job, t)

    def _schedule_completion(self, job: Job, t: Seconds) -> None:
        """(Re)schedule ``job``'s completion, if it falls within one cycle.

        A completion predicted after ``t + control_cycle`` gets no event:
        the next control cycle, or the action or failure that touches the
        job first, would cancel it before it could fire.  The bound is
        inclusive and the same float the simulator computes for the next
        cycle, where completions fire first (``ORDER_COMPLETION``).
        """
        event = self._completion_events.pop(job.job_id, None)
        if event is not None and not event.fired:
            event.cancel()
        when = job.predicted_completion(t)
        if when > t + self.scenario.controller.control_cycle:
            return
        self._completion_events[job.job_id] = self._sim.at(
            max(when, t),
            lambda t2, job_id=job.job_id: self._complete(job_id, t2),
            order=ORDER_COMPLETION,
            tag=f"complete:{job.job_id}",
        )

    def _complete(self, job_id: str, t: Seconds) -> None:
        job = self._jobs[job_id]
        self._completion_events.pop(job_id, None)
        job.complete(t)
        self._live.pop(job_id, None)
        if job.vm_id in self._placement:
            self._placement.remove(job.vm_id)
        self._recorder.bump("jobs_completed")
        self._recorder.record(
            "job_achieved_utility", t, JobUtility().achieved(job)
        )

    # ------------------------------------------------------------------
    # Failures
    # ------------------------------------------------------------------
    def _fail_node(self, t: Seconds, node_id: str) -> None:
        self._cluster.fail_node(node_id)
        costs = self.scenario.costs
        for entry in list(self._placement.entries_on(node_id)):
            if entry.vm_id in self._vm_to_job:
                job = self._job_of(entry.vm_id)
                self._cancel_events(job.job_id)
                if job.phase is JobPhase.RUNNING:
                    # Crash-suspend: loses the checkpoint window's progress.
                    job.suspend(t, work_lost=costs.suspend_checkpoint_loss * job.rate)
            else:
                app_id, inst_node = self._parse_instance(entry.vm_id)
                self._apps[app_id].evacuate_node(inst_node)
            self._placement.remove(entry.vm_id)
        self._recorder.bump("node_failures")
        # Failure instants feed the time-to-recover summary metric;
        # recording the cumulative count dedupes a zone outage's
        # simultaneous failures into one recovery episode.
        self._recorder.record(
            "node_failures_series", t, self._recorder.counter("node_failures")
        )

    def _begin_brownout(self, t: Seconds, brownout) -> None:
        self._cluster.set_brownout(brownout.node_id, brownout.fraction)
        self._recorder.bump("node_brownouts")

    # ------------------------------------------------------------------
    # State views handed to the policy
    # ------------------------------------------------------------------
    def _app_nodes(self) -> dict[str, frozenset[str]]:
        return {
            app_id: frozenset(self._apps[app_id].instance_nodes)
            for app_id in sorted(self._apps)
        }

    # ------------------------------------------------------------------
    # Measurement and recording
    # ------------------------------------------------------------------
    def _lognoise(self, rel_std: float) -> float:
        if rel_std <= 0:
            return 1.0
        sigma = math.sqrt(math.log(1 + rel_std**2))
        return float(self._measure_rng.lognormal(mean=-sigma**2 / 2, sigma=sigma))

    def _record(self, t: Seconds, decision: ControlDecision) -> None:
        rec = self._recorder
        noise = self.scenario.noise
        solution = decision.solution

        population = snapshot_jobs(self._live.values(), t)
        satisfied_lr = solution.satisfied_lr_demand
        rec.record("lr_allocation", t, satisfied_lr)
        rec.record("lr_demand", t, longrunning_max_utility_demand(population))
        # The level the controller equalized this cycle, at its arbiter
        # share, starts the solve near the level at the granted share; the
        # result is the same from any start.
        lr_utility = mean_hypothetical_utility(
            population, satisfied_lr, start=decision.hypothetical.utility_level
        )
        rec.record("lr_utility", t, lr_utility)
        rec.record("lr_utility_target", t, decision.hypothetical.mean_utility)

        tx_alloc_total = 0.0
        tx_demand_total = 0.0
        tx_utils: list[float] = []
        net_rts: list[float] = []
        in_zone_fracs: list[float] = []
        latency_attained = 0
        for app_id in sorted(self._apps):
            app = self._apps[app_id]
            true_load = app.arrival_rate(t)
            model = app.spec.build_perf_model(true_load)
            alloc = app.total_allocation
            rt = model.response_time(alloc) * self._lognoise(noise.response_time_rel_std)
            utility = self._tx_utilities[app_id].of_response_time(rt)
            tx_alloc_total += alloc
            tx_demand_total += model.max_utility_demand(
                self.scenario.controller.rt_tolerance
            )
            tx_utils.append(utility)
            rec.record(f"tx_rt:{app_id}", t, rt)
            rec.record(f"tx_utility:{app_id}", t, utility)
            rec.record(f"tx_allocation:{app_id}", t, alloc)
            if self._network_ctx is not None:
                # ``tx_rt`` stays queueing-only by contract; the network
                # leg is a *new* series, composed into ``rt_total``.
                net_rt = self._network_ctx.expected_rtt_s(app.instance_nodes)
                net_rts.append(net_rt)
                in_zone_fracs.append(
                    self._network_ctx.in_zone_fraction(app.instance_nodes)
                )
                if rt + net_rt <= app.spec.rt_goal:
                    latency_attained += 1
                rec.record(f"rt_network:{app_id}", t, net_rt)
                rec.record(f"rt_total:{app_id}", t, rt + net_rt)
        rec.record("tx_allocation", t, tx_alloc_total)
        rec.record("tx_demand", t, tx_demand_total)
        tx_utility = min(tx_utils) if tx_utils else math.nan
        rec.record("tx_utility", t, tx_utility)
        if self._network_ctx is not None and net_rts:
            rec.record("rt_network_mean", t, sum(net_rts) / len(net_rts))
            rec.record(
                "in_zone_fraction", t, sum(in_zone_fracs) / len(in_zone_fracs)
            )
            rec.record(
                "latency_sla_attainment", t, latency_attained / len(net_rts)
            )

        diag = decision.diagnostics
        rec.record("tx_target", t, diag.tx_target)
        rec.record("lr_target", t, diag.lr_target)
        rec.record("tx_demand_est", t, diag.tx_demand)
        rec.record("lr_demand_est", t, diag.lr_demand)
        rec.record("tx_utility_predicted", t, diag.tx_utility_predicted)
        rec.record("utility_gap", t, abs(tx_utility - lr_utility))
        rec.record("arbiter_iterations", t, diag.arbiter_iterations)
        rec.record("changes", t, solution.changes)

        # Control-plane telemetry (policies without the incremental
        # control plane -- the baselines -- simply record nothing here).
        # Naming contract: repro.sim.recorder module docstring.
        telemetry = diag.telemetry
        if telemetry is not None:
            for stage, ms in telemetry.stage_ms.items():
                rec.record(f"stage_ms:{stage}", t, ms)
            warm = telemetry.mode == "warm"
            rec.record("cycle_warm", t, 1.0 if warm else 0.0)
            rec.record("eq_evals", t, telemetry.eq_evals)
            rec.record("eq_cache_hits", t, telemetry.eq_cache_hits)
            rec.bump("warm_cycles" if warm else "cold_cycles")
            rec.bump("eq_evals_total", telemetry.eq_evals)
            rec.bump("eq_cache_hits_total", telemetry.eq_cache_hits)
            rec.bump("eq_seed_hits_total", telemetry.seed_hits)
            rec.bump("eq_seed_misses_total", telemetry.seed_misses)

        # Both oracle fields are NaN on cycles the oracle skipped or is
        # disabled for, so the series only carry real samples.
        if not math.isnan(diag.optimality_gap):
            rec.record("optimality_gap", t, diag.optimality_gap)
        if not math.isnan(diag.exact_ms):
            rec.record("exact_ms", t, diag.exact_ms)
        if diag.oracle_error:
            rec.bump("oracle_failures")
        if diag.milp_retries:
            rec.bump("milp_retries", diag.milp_retries)

        if diag.shard_telemetry:
            rec.record("shard_imbalance", t, diag.shard_imbalance)
            for shard, st in enumerate(diag.shard_telemetry):
                rec.record(f"shard_ms:{shard}", t, st.stage_ms.get("total", math.nan))

        # ``brownout_fraction`` is recorded every cycle (0.0 while no
        # brownout is active) so its time average is well-defined for
        # every run.
        rec.record(
            "brownout_fraction", t, self._cluster.brownout_capacity_fraction
        )
        if diag.degraded:
            rec.bump("degraded_cycles")
            rec.bump(f"fallback:{diag.fallback_reason or 'unknown'}")
        if diag.deadline_overrun:
            rec.bump("decide_overruns")

        # list.count compares enum members by identity, in C: no hashing.
        phases = [job.phase for job in self._live.values()]
        rec.record("jobs_running", t, phases.count(JobPhase.RUNNING))
        rec.record("jobs_suspended", t, phases.count(JobPhase.SUSPENDED))
        rec.record("jobs_pending", t, phases.count(JobPhase.PENDING))
        rec.record("jobs_completed_series", t, rec.counter("jobs_completed"))

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _job_of(self, vm_id: str) -> Job:
        return self._jobs[self._vm_to_job[vm_id]]

    @staticmethod
    def _parse_instance(vm_id: str) -> tuple[str, str]:
        instance = parse_instance_vm_id(vm_id)
        if instance is None:
            raise SimulationError(f"not an instance vm id: {vm_id!r}")
        return instance


def run_scenario(
    scenario: Scenario, policy_factory: Optional[PolicyFactory] = None
) -> ExperimentResult:
    """Convenience one-call experiment execution."""
    return ExperimentRunner(scenario, policy_factory).run()
