"""The paper's contribution: the utility-driven placement controller.

Hypothetical-utility equalization over the job population, cross-workload
CPU arbitration, the incremental memory-constrained placement solver, and
the control loop tying them together.

Placement solving is pluggable: ``SolverConfig(backend=...)`` selects an
implementation from the backend registry (:mod:`repro.core.backends`) --
``"greedy"`` for the paper's fast incremental heuristic
(:class:`PlacementSolver`), ``"milp"`` for the optimal mixed-integer
oracle (:class:`MilpPlacementSolver`) used in differential testing and
optimality-gap measurement (:func:`make_oracle`, :func:`optimality_gap`).

For large clusters :class:`ShardedController` partitions the nodes into
shards and runs one monolithic ``decide()`` per shard, one after another
in the calling process; :class:`ShardArbiter` routes arriving jobs
across shards.  :class:`ResilientController` wraps any policy with a
feasibility guard and a last-known-good fallback.
"""

from .actions_planner import plan_actions
from .backends import (
    SolverBackend,
    available_backends,
    get_backend,
    make_solver,
)
from .milp_solver import MilpPlacementSolver
from .arbiter import Arbiter, ArbiterResult, BisectionArbiter, StealingArbiter, make_arbiter
from .controller import (
    ControlDecision,
    ControlDiagnostics,
    CycleTelemetry,
    UtilityDrivenController,
    make_oracle,
    optimality_gap,
)
from .demand import (
    LongRunningCurve,
    TransactionalAggregateCurve,
    TransactionalCurve,
    UtilityCurve,
    effective_capacity,
)
from .hypothetical import (
    EqualizerStats,
    HypotheticalAllocation,
    HypotheticalEqualizer,
    equalize_hypothetical_utility,
    longrunning_max_utility_demand,
    mean_hypothetical_utility,
)
from .job_scheduler import (
    AppRequest,
    EvictionPolicy,
    JobRequest,
    JobRequests,
    order_by_urgency,
    split_runnable,
)
from .placement_solver import (
    PlacementSolution,
    PlacementSolver,
    SolverConfig,
    water_fill,
)
from .shard_arbiter import (
    ShardArbiter,
    ShardSplit,
    route_by_headroom,
)
from .resilient import ResilientController
from .sharded import ShardedController

__all__ = [
    "UtilityDrivenController",
    "ResilientController",
    "ControlDecision",
    "ControlDiagnostics",
    "CycleTelemetry",
    "EqualizerStats",
    "HypotheticalAllocation",
    "HypotheticalEqualizer",
    "equalize_hypothetical_utility",
    "mean_hypothetical_utility",
    "longrunning_max_utility_demand",
    "Arbiter",
    "ArbiterResult",
    "BisectionArbiter",
    "StealingArbiter",
    "make_arbiter",
    "UtilityCurve",
    "TransactionalCurve",
    "TransactionalAggregateCurve",
    "LongRunningCurve",
    "effective_capacity",
    "PlacementSolver",
    "MilpPlacementSolver",
    "PlacementSolution",
    "SolverBackend",
    "SolverConfig",
    "available_backends",
    "get_backend",
    "make_solver",
    "water_fill",
    "make_oracle",
    "optimality_gap",
    "JobRequest",
    "JobRequests",
    "AppRequest",
    "EvictionPolicy",
    "order_by_urgency",
    "split_runnable",
    "plan_actions",
    "ShardArbiter",
    "ShardSplit",
    "route_by_headroom",
    "ShardedController",
]
