"""The utility-driven placement controller (the paper's contribution).

Each control cycle the controller:

1. snapshots the incomplete-job population and builds the transactional
   performance models from its smoothed demand estimates;
2. computes each workload's **max-utility demand**;
3. runs the **arbiter** to split the cluster's CPU power so the two
   workloads' utilities are equalized (or each demand is met);
4. converts the long-running share into **per-job target rates** through
   hypothetical-utility equalization;
5. solves the **integral placement** under CPU/memory constraints with a
   bounded number of disruptive changes; and
6. emits the **action plan** (start/stop/suspend/resume/migrate/adjust)
   that realizes the new placement.

The controller is deliberately ignorant of simulated time bookkeeping and
of ground-truth workload parameters: the experiment runner feeds it noisy
observations (:meth:`UtilityDrivenController.observe_app`) and asks for a
decision (:meth:`UtilityDrivenController.decide`), exactly as a deployed
controller would sit behind a monitoring pipeline.

Like the paper's controller, ``decide()`` recomputes the whole placement
from the current state every cycle.  Besides its demand estimates, the
controller carries one float across cycles: the previous cycle's
equalized utility level.  With ``ControllerConfig.warm_start`` it seeds
the level predictor of the cycle's first solve, and nothing ever drops
it -- a node failure, a demand shift or a degraded cycle included.  A
seed of any value is result-preserving, because every prediction is
verified against the cold bisection's invariant
(:meth:`~repro.core.hypothetical.HypotheticalEqualizer.seed_level`), so
a warm cycle's placement is bit-identical to a cold one's.  Each cycle
also reports :class:`CycleTelemetry`: per-stage wall-times and equalizer
pass statistics, which the experiment runner records.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Mapping, Optional, Sequence

from ..cluster.actions import PlacementAction
from ..cluster.node import NodeSpec
from ..cluster.placement import Placement
from ..config import ControllerConfig, SolverConfig
from ..errors import UnknownEntityError
from ..netmodel.context import NetworkContext
from ..perf.estimator import ParameterTracker, with_network_delay
from ..perf.jobmodel import JobPopulation, snapshot_jobs
from ..types import Mhz, Seconds
from ..utility.base import UtilityFunction
from ..utility.transactional import TransactionalUtility
from ..workloads.jobs import Job, JobPhase
from ..workloads.transactional import TransactionalAppSpec
from .actions_planner import plan_actions
from .arbiter import ArbiterResult, make_arbiter
from .demand import (
    LongRunningCurve,
    TransactionalAggregateCurve,
    TransactionalCurve,
    effective_capacity,
)
from .hypothetical import (
    HypotheticalAllocation,
    longrunning_max_utility_demand,
)
from .backends import SolverBackend, make_solver
from .job_scheduler import AppRequest, JobRequest
from .placement_solver import PlacementSolution


@dataclass(frozen=True, slots=True)
class CycleTelemetry:
    """Per-cycle control-plane telemetry, attached to the diagnostics.

    Attributes
    ----------
    mode:
        ``"warm"`` when the previous cycle's equalized level seeded this
        cycle's first solve, ``"cold"`` otherwise (the first cycle, or
        ``warm_start`` off).
    stage_ms:
        Wall-clock milliseconds per decide() stage (``demand``,
        ``arbiter``, ``equalize``, ``requests``, ``solver``, ``planner``,
        plus their sum under ``total``).
    eq_evals / eq_cache_hits:
        Vectorized passes over the population (exact consumed-curve
        evaluations and the level predictor's Newton steps) / curve
        evaluations served by the shared memo, across every
        equalization of the cycle.
    seed_hits / seed_misses:
        Equalizations whose predicted level verified (the bisection
        resumed at the prediction's node, or a retried neighbouring or
        shallower one) versus those that fell back to the cold bracket.
    """

    mode: str
    stage_ms: Mapping[str, float] = field(default_factory=dict)
    eq_evals: int = 0
    eq_cache_hits: int = 0
    seed_hits: int = 0
    seed_misses: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of consumed-curve lookups served by the memo."""
        lookups = self.eq_evals + self.eq_cache_hits
        return self.eq_cache_hits / lookups if lookups else 0.0


@dataclass(frozen=True)
class ControlDiagnostics:
    """Per-cycle telemetry of a policy's reasoning: the one record every
    :class:`~repro.experiments.runner.PlacementPolicy` returns.

    These are the quantities the paper's figures plot: predicted utilities
    (Figure 1) and demands versus granted allocations (Figure 2).  The
    runner turns each field into recorder series and counters (naming
    contract: :mod:`repro.sim.recorder`).
    """

    time: Seconds
    capacity: Mhz
    tx_demand: Mhz
    lr_demand: Mhz
    tx_target: Mhz
    lr_target: Mhz
    tx_utility_predicted: float
    lr_utility_mean: float
    lr_utility_level: float
    equalized: bool
    arbiter_iterations: int
    population_size: int
    app_targets: Mapping[str, Mhz] = field(default_factory=dict)
    #: Control-plane telemetry (stage wall-times, cache statistics); None
    #: for policies that do not run the incremental control plane.
    telemetry: Optional[CycleTelemetry] = None
    #: Graceful degradation (set by
    #: :class:`repro.core.resilient.ResilientController`): whether this
    #: cycle fell back to the last-known-good placement, why (the
    #: ``fallback:<reason>`` counter name) and the violation or exception
    #: behind it.
    degraded: bool = False
    fallback_reason: str = ""
    fallback_detail: str = ""
    #: Whether the cycle overran its configured ``decide_budget_ms``
    #: (non-strict budgets only mark; strict budgets degrade).
    deadline_overrun: bool = False
    #: Background exact-oracle telemetry (the ``exact_oracle`` config
    #: knob): relative shortfall of this cycle's placement against the
    #: exact optimum of the same instance, and the oracle's wall-time in
    #: milliseconds.  NaN when the oracle did not run this cycle.
    #: ``oracle_error`` names the exception when the oracle raised this
    #: cycle (no gap sample then); empty otherwise.
    optimality_gap: float = math.nan
    exact_ms: float = math.nan
    oracle_error: str = ""
    #: MILP solves this cycle retried with presolve off: the production
    #: solve plus the oracle's (summed over shards when sharded).
    milp_retries: int = 0
    #: Sharded control plane (:class:`repro.core.sharded.ShardedController`
    #: with more than one shard; empty otherwise): each shard's own
    #: telemetry in shard order and the spread (max - min) of the
    #: shards' local equalized utility levels.
    shard_telemetry: tuple[CycleTelemetry, ...] = ()
    shard_imbalance: float = 0.0


def _solution_value(solution: PlacementSolution) -> float:
    """Satisfied demand of a placement (job rates + web grants, MHz).

    The quantity the differential harness compares across backends; the
    oracle's gap is measured on it, penalty-free.
    """
    return sum(solution.job_rates.values()) + sum(
        solution.app_allocations.values()
    )


def make_oracle(config: SolverConfig, backend: str) -> SolverBackend:
    """The exact solver ``backend`` relaxed into an optimality bound.

    The relaxation is the differential harness's -- ``min_job_rate=0``
    and no change penalty -- so every solution a production solver
    built from ``config`` can emit is feasible for the oracle, and the
    oracle's satisfied demand upper-bounds it.
    """
    return make_solver(
        dataclasses.replace(
            config, backend=backend, min_job_rate=0.0, change_penalty_mhz=0.0
        )
    )


def optimality_gap(achieved: Mhz, bound: Mhz) -> float:
    """Relative shortfall of ``achieved`` below ``bound``, clamped at 0."""
    if bound <= 0.0:
        return 0.0
    return max(0.0, (bound - achieved) / bound)


@dataclass(frozen=True)
class ControlDecision:
    """Everything the controller decided in one cycle."""

    actions: Sequence[PlacementAction]
    solution: PlacementSolution
    hypothetical: HypotheticalAllocation
    diagnostics: ControlDiagnostics

    @property
    def placement(self) -> Placement:
        """The placement the cycle decided (the solution's)."""
        return self.solution.placement


class UtilityDrivenController:
    """SLA-driven placement controller for heterogeneous workloads.

    Parameters
    ----------
    app_specs:
        The transactional applications under management.
    config:
        Controller tunables; defaults reproduce the paper's setup.
    tx_utility_shape / job_utility_shape:
        Optional utility shapes (default: the paper's linear utility).
        The job shape is applied to hypothetical slacks only through the
        long-running *mean*; the equalized level is shape-independent.
    network:
        Optional :class:`~repro.netmodel.context.NetworkContext` binding
        the scenario's zone topology to the cluster's nodes.  Only
        consulted when ``config.latency_weight > 0``: each app's perf
        model is then shifted by the weighted expected network RTT of
        its current placement, and new instances prefer nodes in zones
        that reduce it.  With the default weight of 0 the controller is
        bit-identical to the latency-blind one.
    """

    def __init__(
        self,
        app_specs: Sequence[TransactionalAppSpec],
        config: Optional[ControllerConfig] = None,
        tx_utility_shape: Optional[UtilityFunction] = None,
        network: Optional[NetworkContext] = None,
    ) -> None:
        self.config = config or ControllerConfig()
        # Gate once at construction: with a zero weight the context must
        # be invisible to every decision path.
        self._network = (
            network if network is not None and self.config.latency_weight > 0
            else None
        )
        #: The last cycle's equalized level: the next cycle's seed.
        self._level: Optional[float] = None
        self._specs = {spec.app_id: spec for spec in app_specs}
        self._utilities = {
            spec.app_id: TransactionalUtility(spec.rt_goal, tx_utility_shape)
            for spec in app_specs
        }
        self._trackers = {
            spec.app_id: ParameterTracker(
                self.config.estimator_alpha,
                priors={"service_cycles": spec.mean_service_cycles},
            )
            for spec in app_specs
        }
        self._arbiter = make_arbiter(self.config.arbiter)
        self._solver = self._build_solver()
        self._oracle = self._build_oracle()
        self._oracle_cycles = 0

    def _build_solver(self):
        """The placement solver this controller runs on.

        Selected by name from the backend registry (greedy heuristic,
        optimal MILP, or any registered third-party formulation); see
        :mod:`repro.core.backends`.  Overridden by policies whose
        semantics are tied to one specific solver.
        """
        return make_solver(self.config.solver)

    def _build_oracle(self):
        """The background optimality oracle, or None when disabled.

        Built eagerly so a bad backend name fails at construction rather
        than mid-run.  See :func:`make_oracle` for why the reported gap
        is a true optimality gap (>= 0).
        """
        if self.config.exact_oracle is None:
            return None
        return make_oracle(self.config.solver, self.config.exact_oracle)

    # ------------------------------------------------------------------
    # Observation feed
    # ------------------------------------------------------------------
    def observe_app(
        self, app_id: str, *, load: float, service_cycles: Optional[float] = None
    ) -> None:
        """Fold one monitoring sample for a transactional application.

        ``load`` is the measured session count (closed model) or request
        arrival rate (open model); ``service_cycles`` the measured mean
        per-request CPU work.
        """
        tracker = self._trackers.get(app_id)
        if tracker is None:
            raise UnknownEntityError(f"unmanaged app {app_id!r}")
        tracker.observe("load", load)
        if service_cycles is not None:
            tracker.observe("service_cycles", service_cycles)

    def estimated_load(self, app_id: str) -> float:
        """The smoothed load estimate for ``app_id`` (0 before any sample)."""
        tracker = self._trackers.get(app_id)
        if tracker is None:
            raise UnknownEntityError(f"unmanaged app {app_id!r}")
        return tracker.get("load") if tracker.has("load") else 0.0

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def decide(
        self,
        t: Seconds,
        *,
        nodes: Sequence[NodeSpec],
        jobs: Sequence[Job],
        current_placement: Placement,
        app_nodes: Mapping[str, frozenset[str]],
    ) -> ControlDecision:
        """Run one control cycle and return the decision.

        Parameters
        ----------
        t:
            Decision time (seconds).
        nodes:
            The *active* nodes.
        jobs:
            The live jobs: submitted, not completed or cancelled, in
            trace order.  Any other job is filtered out.
        current_placement:
            Ground-truth placement currently in force (owned by the
            runner, which reflects completions and failures).
        app_nodes:
            Per-app set of nodes currently hosting an instance.
        """
        t0 = perf_counter()
        included: list[Job] = []
        population = snapshot_jobs(jobs, t, included=included)
        tx_curves = self._tx_curves(app_nodes)
        tx_curve = (
            tx_curves[0]
            if len(tx_curves) == 1
            else TransactionalAggregateCurve(tx_curves)
        )
        lr_curve = LongRunningCurve(population, self.config.lr_metric)
        capacity = effective_capacity(
            sum(n.cpu_capacity for n in nodes), self.config.capacity_efficiency
        )
        warm = self.config.warm_start and self._level is not None
        if warm:
            lr_curve.warm_seed(self._level)
        t1 = perf_counter()

        split = self._arbiter.split(capacity, tx_curve, lr_curve)
        t2 = perf_counter()
        # One float-exact equalization per cycle: the arbiter's own curve
        # evaluations are coarse, only this result feeds per-job rates.
        hypothetical = lr_curve.equalize(split.lr_allocation)
        t3 = perf_counter()

        app_targets = self._app_targets(tx_curves, tx_curve, split)
        app_requests = self._app_requests(app_targets, app_nodes, nodes)
        job_requests = self._job_requests(included, population, hypothetical)
        t4 = perf_counter()

        solution = self._solver.solve(
            nodes, app_requests, job_requests, lr_target=split.lr_allocation
        )
        t5 = perf_counter()
        actions = plan_actions(current_placement, solution.placement, included)
        t6 = perf_counter()

        # Background optimality oracle -- after the decision is final,
        # so its wall-time never pollutes the stage timings above and
        # its answer never changes the cycle's outcome.
        gap, exact_ms, oracle_error, oracle_retries = self._run_oracle(
            nodes, app_requests, job_requests, split.lr_allocation, solution
        )

        self._level = hypothetical.utility_level
        eq_stats = lr_curve.equalizer.stats
        telemetry = CycleTelemetry(
            mode="warm" if warm else "cold",
            stage_ms={
                "demand": (t1 - t0) * 1e3,
                "arbiter": (t2 - t1) * 1e3,
                "equalize": (t3 - t2) * 1e3,
                "requests": (t4 - t3) * 1e3,
                "solver": (t5 - t4) * 1e3,
                "planner": (t6 - t5) * 1e3,
                "total": (t6 - t0) * 1e3,
            },
            eq_evals=eq_stats.evals,
            eq_cache_hits=eq_stats.cache_hits,
            seed_hits=eq_stats.seed_hits,
            seed_misses=eq_stats.seed_misses,
        )

        diagnostics = ControlDiagnostics(
            time=t,
            capacity=capacity,
            tx_demand=tx_curve.max_utility_demand,
            lr_demand=longrunning_max_utility_demand(population),
            tx_target=split.tx_allocation,
            lr_target=split.lr_allocation,
            tx_utility_predicted=split.tx_utility,
            lr_utility_mean=hypothetical.mean_utility,
            lr_utility_level=hypothetical.utility_level,
            equalized=split.equalized,
            arbiter_iterations=split.iterations,
            population_size=len(population),
            app_targets=dict(app_targets),
            telemetry=telemetry,
            optimality_gap=gap,
            exact_ms=exact_ms,
            oracle_error=oracle_error,
            milp_retries=solution.milp_retries + oracle_retries,
        )
        return ControlDecision(
            actions=actions,
            solution=solution,
            hypothetical=hypothetical,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _run_oracle(
        self,
        nodes: Sequence[NodeSpec],
        app_requests: Sequence[AppRequest],
        job_requests: Sequence[JobRequest],
        lr_target: Mhz,
        solution: PlacementSolution,
    ) -> tuple[float, float, str, int]:
        """Solve the cycle exactly in the background.

        Returns ``(gap, ms, error, milp_retries)``, and ``(nan, nan, "",
        0)`` when the oracle is disabled or this cycle is skipped by
        ``exact_oracle_every``.  An oracle failure (e.g. a
        :class:`~repro.errors.ModelError` on a hard instance) suppresses
        the gap sample, still reports the wall-time spent, and names the
        exception in ``error`` so the runner counts it.
        """
        if self._oracle is None:
            return math.nan, math.nan, "", 0
        self._oracle_cycles += 1
        if (self._oracle_cycles - 1) % self.config.exact_oracle_every:
            return math.nan, math.nan, "", 0
        start = perf_counter()
        try:
            exact = self._oracle.solve(
                nodes, app_requests, job_requests, lr_target=lr_target
            )
        except Exception as exc:  # the oracle must never fail the cycle
            error = f"{type(exc).__name__}: {exc}"
            return math.nan, (perf_counter() - start) * 1e3, error, 0
        exact_ms = (perf_counter() - start) * 1e3
        return (
            optimality_gap(_solution_value(solution), _solution_value(exact)),
            exact_ms,
            "",
            exact.milp_retries,
        )

    def _tx_curves(
        self, app_nodes: Optional[Mapping[str, frozenset[str]]] = None
    ) -> list[TransactionalCurve]:
        curves = []
        for app_id in sorted(self._specs):
            spec = self._specs[app_id]
            tracker = self._trackers[app_id]
            load = tracker.get("load") if tracker.has("load") else 0.0
            cycles = tracker.get("service_cycles")
            model = spec.build_perf_model(load, service_cycles=cycles)
            if self._network is not None and app_nodes is not None:
                # End-to-end latency: every probe of this curve (arbiter
                # bisection, utility targets, allocation inversions) now
                # prices the placement's expected network RTT.
                delay = self.config.latency_weight * self._network.expected_rtt_s(
                    app_nodes.get(app_id, frozenset())
                )
                model = with_network_delay(model, delay)
            curves.append(
                TransactionalCurve(
                    model, self._utilities[app_id], self.config.rt_tolerance
                )
            )
        return curves

    def _app_targets(
        self,
        tx_curves: list[TransactionalCurve],
        tx_curve,
        split: ArbiterResult,
    ) -> dict[str, Mhz]:
        app_ids = sorted(self._specs)
        if len(tx_curves) == 1:
            return {app_ids[0]: split.tx_allocation}
        shares = tx_curve.split(split.tx_allocation)
        return dict(zip(app_ids, shares))

    def _app_requests(
        self,
        app_targets: Mapping[str, Mhz],
        app_nodes: Mapping[str, frozenset[str]],
        nodes: Sequence[NodeSpec] = (),
    ) -> list[AppRequest]:
        node_ids = [n.node_id for n in nodes]
        requests = []
        for app_id in sorted(self._specs):
            spec = self._specs[app_id]
            current = frozenset(app_nodes.get(app_id, frozenset()))
            preferred: tuple[tuple[str, int], ...] = ()
            if self._network is not None:
                preferred = self._network.preferred_nodes(node_ids, current)
            requests.append(
                AppRequest(
                    app_id=app_id,
                    target_allocation=app_targets.get(app_id, 0.0),
                    instance_memory_mb=spec.instance_memory_mb,
                    min_instances=spec.min_instances,
                    max_instances=spec.max_instances,
                    current_nodes=current,
                    preferred_nodes=preferred,
                )
            )
        return requests

    def _job_requests(
        self,
        included: Sequence[Job],
        population: JobPopulation,
        hypothetical: HypotheticalAllocation,
    ) -> list[JobRequest]:
        """Requests for the snapshot's jobs, in snapshot order.

        ``included`` is the job list :func:`snapshot_jobs` collected, so
        it is index-aligned with the population columns and the
        hypothetical rates -- no id-keyed lookups on this hot path.  As
        in :func:`snapshot_jobs`, the job's host and phase are read from
        its private fields: this loop visits every live job every cycle.
        """
        requests = []
        append = requests.append
        suspended = JobPhase.SUSPENDED
        trusted = JobRequest.trusted
        for job, rate, rem in zip(
            included, hypothetical.rates.tolist(), population.remaining.tolist()
        ):
            spec = job.spec
            append(
                trusted(
                    spec.job_id,
                    job.vm_id,
                    rate,
                    spec.speed_cap_mhz,
                    spec.memory_mb,
                    job._node_id,
                    job._phase is suspended,
                    spec.submit_time,
                    spec.importance,
                    rem,
                )
            )
        return requests
