"""Controller configuration.

One frozen dataclass collects every tunable of the utility-driven
placement controller, with validation at construction.  The defaults
reproduce the paper's setup (600 s control cycle) with the solver and
arbiter settings used throughout the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Optional

from .errors import ConfigurationError
from .types import Mhz, Seconds


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the placement solver.

    The ``backend`` field selects the solver implementation through the
    backend registry (:mod:`repro.core.backends`): ``"greedy"`` is the
    paper's fast incremental heuristic
    (:class:`repro.core.placement_solver.PlacementSolver`), ``"milp"``
    the optimal mixed-integer formulation
    (:class:`repro.core.milp_solver.MilpPlacementSolver`) used as a
    correctness oracle and optimality-gap reference.

    Attributes
    ----------
    backend:
        Name of the registered solver backend (``"greedy"`` |
        ``"milp"``).  Unknown names fail at solver construction
        (:func:`repro.core.backends.make_solver`), not here.
    change_penalty_mhz:
        MILP objective penalty (MHz) per disruptive placement change;
        keeps the optimal backend from churning placements for
        negligible demand gains.  Ignored by the greedy backend, which
        bounds churn structurally (budget/eviction/migration caps).
    min_job_rate:
        Jobs whose equalized target is below this (MHz) are not *admitted*
        (running jobs are never stopped for having a low target; eviction
        handles displacement).
    change_budget:
        Maximum disruptive actions per cycle (``None`` = unlimited).
    eviction_margin:
        Relative urgency advantage a waiting job needs to evict.
        Greedy-only ordering heuristic: the MILP backend subsumes it
        with ``change_penalty_mhz`` and ``max_evictions``.
    max_evictions:
        Cap on evictions per cycle (suspension churn bound; each eviction
        costs a suspend now and a resume later).
    protect_completion:
        Running jobs that could finish within this many seconds at full
        speed are never evicted (a suspend/resume round trip costs more
        than letting them run out; also prevents lockstep starvation
        under deep overload).  Honoured by both backends: the MILP
        forces protected jobs to remain placed (migration still
        allowed).
    migration_deficit:
        A running job allocated below ``migration_deficit * target``
        becomes a migration candidate.  Greedy-only ordering heuristic;
        the MILP weighs every move through the objective instead, but
        still caps moves at ``max_migrations``.
    max_migrations:
        Cap on rebalancing migrations per cycle.
    stop_idle_instances:
        Whether web instances granted no CPU are stopped (down to
        ``min_instances``).  Honoured by both backends: when False, the
        MILP pins every running instance in place.
    web_start_threshold:
        Unplaced fraction of an app's target below which no new instance
        is started (avoids churning instances for slivers).  Greedy-only
        heuristic; the MILP prices instance starts through
        ``change_penalty_mhz`` instead.
    """

    min_job_rate: Mhz = 150.0
    change_budget: Optional[int] = None
    eviction_margin: float = 0.5
    max_evictions: int = 4
    protect_completion: Seconds = 1800.0
    migration_deficit: float = 0.5
    max_migrations: int = 4
    stop_idle_instances: bool = True
    web_start_threshold: float = 0.02
    # New fields append after the seed ones so positional construction
    # of this public frozen dataclass keeps working.
    backend: str = "greedy"
    change_penalty_mhz: Mhz = 1.0

    def __post_init__(self) -> None:
        if not self.backend or not isinstance(self.backend, str):
            raise ConfigurationError("backend must be a non-empty string")
        if self.change_penalty_mhz < 0:
            raise ConfigurationError("change_penalty_mhz must be non-negative")
        if self.min_job_rate < 0:
            raise ConfigurationError("min_job_rate must be non-negative")
        if self.change_budget is not None and self.change_budget < 0:
            raise ConfigurationError("change_budget must be non-negative or None")
        if self.eviction_margin < 0:
            raise ConfigurationError("eviction_margin must be non-negative")
        if self.max_evictions < 0:
            raise ConfigurationError("max_evictions must be non-negative")
        if self.protect_completion < 0:
            raise ConfigurationError("protect_completion must be non-negative")
        if not 0 <= self.migration_deficit <= 1:
            raise ConfigurationError("migration_deficit must be in [0, 1]")
        if self.max_migrations < 0:
            raise ConfigurationError("max_migrations must be non-negative")
        if not 0 <= self.web_start_threshold < 1:
            raise ConfigurationError("web_start_threshold must be in [0, 1)")


@dataclass(frozen=True)
class ControllerConfig:
    """Tunables of :class:`repro.core.controller.UtilityDrivenController`.

    Attributes
    ----------
    control_cycle:
        Seconds between placement recomputations (600 s in the paper).
    arbiter:
        ``"bisection"`` (fast path) or ``"stealing"`` (the paper's
        iterative loop); both converge to the same split.
    lr_metric:
        Which scalar of the hypothetical allocation the arbiter compares
        against the transactional utility: the population ``"mean"`` (what
        Figure 1 plots) or the equalized ``"level"``.
    capacity_efficiency:
        Fraction of raw cluster capacity the arbiter may promise; a value
        slightly below 1 keeps the divisible-CPU arbitration realizable by
        the integral placement.
    rt_tolerance:
        Relative response-time slack defining the transactional
        max-utility demand (see :mod:`repro.perf.queueing`).
    estimator_alpha:
        EWMA smoothing factor for the demand estimators.
    solver:
        Placement-solver tunables (:class:`SolverConfig`), including the
        ``backend`` name that picks the solver implementation from
        :mod:`repro.core.backends` (greedy heuristic vs optimal MILP).
    warm_start:
        Whether the previous cycle's equalized level seeds the level
        predictor of each cycle's first solve.  Result-preserving: every
        prediction is verified, so a seed of any value gives the same
        decision.  ``False`` starts every cycle cold.
    warm_demand_rtol:
        Unread: no input change runs a cycle cold any more.  Still
        declared and validated so existing spec files load; its removal
        waits for a benchmark PR, whose spec file pins every field.
    warm_seed_depth:
        Unread: the equalizer now verifies its predicted level at a depth
        it derives itself.  Still declared and validated so existing
        spec files load; its removal waits for a benchmark PR, whose
        spec file pins every field.
    shards:
        Number of cluster shards of the hierarchical control plane
        (:class:`repro.core.sharded.ShardedController`).  ``1`` (the
        default) runs the monolithic controller; ``> 1`` partitions the
        topology, runs one sub-controller per shard, and routes
        newly-arrived jobs across shards through the top-level shard
        arbiter (:mod:`repro.core.shard_arbiter`).
    shard_workers:
        Unread: every shard decides in the calling process, one after
        another.  Still declared and validated so existing spec files
        load; its removal waits for a benchmark PR, whose workload sets
        it.
    shard_planner:
        How nodes are assigned to shards.  Only ``"round-robin"`` is
        accepted: each new node joins the least-populated shard
        (:func:`repro.core.shard_arbiter.least_populated_shard`).
    resilient:
        Whether the experiment runner wraps the policy in
        :class:`repro.core.resilient.ResilientController`: every decision
        is feasibility-checked before it is applied, and an exception
        escaping ``decide()`` (or an infeasible decision) degrades the
        cycle to the last-known-good placement instead of aborting the
        run.  ``False`` lets failures propagate (useful when debugging a
        policy).
    decide_budget_ms:
        Wall-clock budget for one ``decide()`` call in milliseconds
        (``None`` = no deadline).  Overruns are counted in the
        ``decide_overruns`` recorder counter; with
        ``decide_budget_strict`` they additionally degrade the cycle.
        Wall-clock is host-dependent, so registered scenarios leave this
        unset to preserve seed determinism.
    decide_budget_strict:
        Whether a budget overrun falls back to the last-known-good
        placement (strict) or merely increments the overrun accounting.
    max_consecutive_degraded:
        Abort the run with
        :class:`repro.errors.DegradedModeError` after more than this many
        consecutive degraded cycles (``None`` = degrade forever).
    latency_weight:
        Weight of the network-RTT term in the latency-aware placement
        objective (:mod:`repro.netmodel`): each app's perf model is
        shifted by ``latency_weight x`` the demand-weighted expected
        RTT of its current placement, and new instances prefer nodes in
        zones that reduce it.  ``0`` (the default) disables the
        objective entirely -- bit-identical decisions to the
        latency-blind controller, even when the scenario declares a
        ``[network]`` topology.  ``1`` prices network latency at face
        value against the response-time goal; intermediate values
        discount it.
    exact_oracle:
        Name of a registered exact solver backend (``"milp"``) to run
        as a *background optimality oracle*: after the production
        solver decides a cycle, the oracle re-solves the same instance
        exactly (with ``min_job_rate=0`` and no change penalty, see
        :func:`repro.core.controller.make_oracle`) and the relative
        shortfall is reported as the ``optimality_gap`` diagnostic, with
        the oracle's wall-time as ``exact_ms``.  The oracle runs off the critical
        path -- its answer never changes the decision, and an oracle
        failure only suppresses that cycle's gap sample.  ``None`` (the
        default) disables the telemetry entirely.
    exact_oracle_every:
        Run the oracle every N-th control cycle (>= 1).  Exact solves
        are exponentially harder than the greedy heuristic, so sparse
        sampling keeps long runs tractable.
    """

    control_cycle: Seconds = 600.0
    arbiter: Literal["bisection", "stealing"] = "bisection"
    lr_metric: Literal["mean", "level"] = "mean"
    capacity_efficiency: float = 1.0
    rt_tolerance: float = 0.05
    estimator_alpha: float = 0.3
    solver: SolverConfig = field(default_factory=SolverConfig)
    # New fields append after the seed ones so positional construction
    # of this public frozen dataclass keeps working.
    warm_start: bool = True
    warm_demand_rtol: float = 0.35
    warm_seed_depth: int = 8
    shards: int = 1
    shard_workers: int = 1
    shard_planner: str = "round-robin"
    resilient: bool = True
    decide_budget_ms: Optional[float] = None
    decide_budget_strict: bool = False
    max_consecutive_degraded: Optional[int] = None
    latency_weight: float = 0.0
    exact_oracle: Optional[str] = None
    exact_oracle_every: int = 1

    def __post_init__(self) -> None:
        if self.control_cycle <= 0:
            raise ConfigurationError("control_cycle must be positive")
        if self.arbiter not in ("bisection", "stealing"):
            raise ConfigurationError(f"unknown arbiter {self.arbiter!r}")
        if self.lr_metric not in ("mean", "level"):
            raise ConfigurationError(f"unknown lr_metric {self.lr_metric!r}")
        if not 0 < self.capacity_efficiency <= 1:
            raise ConfigurationError("capacity_efficiency must be in (0, 1]")
        if self.rt_tolerance <= 0:
            raise ConfigurationError("rt_tolerance must be positive")
        if not 0 < self.estimator_alpha <= 1:
            raise ConfigurationError("estimator_alpha must be in (0, 1]")
        if self.warm_demand_rtol < 0:
            raise ConfigurationError("warm_demand_rtol must be non-negative")
        if self.warm_seed_depth < 1:
            raise ConfigurationError("warm_seed_depth must be >= 1")
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ConfigurationError("shards must be a positive integer")
        if not isinstance(self.shard_workers, int) or self.shard_workers < 1:
            raise ConfigurationError("shard_workers must be a positive integer")
        if self.shard_planner != "round-robin":
            raise ConfigurationError(
                f"unknown shard planner {self.shard_planner!r} "
                "(available: round-robin)"
            )
        if self.decide_budget_ms is not None and self.decide_budget_ms <= 0:
            raise ConfigurationError("decide_budget_ms must be positive or None")
        if self.max_consecutive_degraded is not None and (
            not isinstance(self.max_consecutive_degraded, int)
            or self.max_consecutive_degraded < 1
        ):
            raise ConfigurationError(
                "max_consecutive_degraded must be a positive integer or None"
            )
        if not math.isfinite(self.latency_weight) or self.latency_weight < 0:
            raise ConfigurationError(
                "latency_weight must be finite and non-negative"
            )
        if self.exact_oracle is not None and (
            not isinstance(self.exact_oracle, str) or not self.exact_oracle
        ):
            raise ConfigurationError(
                "exact_oracle must be a backend name or None"
            )
        if not isinstance(self.exact_oracle_every, int) or self.exact_oracle_every < 1:
            raise ConfigurationError(
                "exact_oracle_every must be a positive integer"
            )


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement-noise model applied by the experiment runner.

    The controller sees *measured* quantities; multiplicative lognormal
    noise with the given relative standard deviations emulates monitoring
    error.  Zero disables a noise source.
    """

    response_time_rel_std: float = 0.03
    throughput_rel_std: float = 0.02
    service_cycles_rel_std: float = 0.02

    def __post_init__(self) -> None:
        for name in (
            "response_time_rel_std",
            "throughput_rel_std",
            "service_cycles_rel_std",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"NoiseConfig.{name} must be non-negative")
