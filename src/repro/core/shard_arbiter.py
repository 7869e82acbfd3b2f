"""Top level of the sharded control plane: partition nodes, split CPU.

The paper's control loop is two-level (a capacity arbiter over per-
category application managers).  The sharded control plane
(:mod:`repro.core.sharded`) takes that one level further for large
clusters: the topology is partitioned into **shards**, each shard runs
the existing monolithic controller over its own nodes and jobs, and this
module's :class:`ShardArbiter` plays the capacity arbiter *across*
shards.

Two pieces live here:

* **Node partitioning** -- :func:`least_populated_shard` gives each node
  seen for the first time the shard with the fewest nodes.  The caller
  keeps the answer: once a node is assigned it never moves (so one
  shard's node failure cannot reshuffle another shard's nodes, or the
  jobs they host, across shards).

* **Cross-shard CPU arbitration** -- :meth:`ShardArbiter.split` reuses
  the :class:`~repro.core.hypothetical.HypotheticalEqualizer` consumed-
  curve machinery on the *shard-aggregated* curve: it bisects for the
  single utility level ``u*`` at which the shards' summed (budget-
  capped) consumptions exhaust the cluster budget, exactly as the
  monolithic equalization bisects the per-job consumed curve.  The
  per-shard allocations at ``u*`` price each shard's load; the residual
  **headrooms** drive deterministic routing of newly-arrived jobs to the
  least-loaded shard, and the spread of per-shard equalized levels is
  reported as the ``shard_imbalance`` telemetry series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ConfigurationError
from ..perf.jobmodel import JobPopulation
from ..types import Mhz
from .hypothetical import HypotheticalEqualizer

#: Bisection iterations for the cross-shard level search.  The result
#: only prices shards for routing and telemetry -- per-job rates come
#: from the shards' own float-exact equalizations -- so the monolithic
#: coarse-evaluation depth is more than enough.
_SPLIT_ITERS = 48


# ----------------------------------------------------------------------
# Node partitioning
# ----------------------------------------------------------------------
def least_populated_shard(shards: int, assigned: Mapping[str, int]) -> int:
    """Shard index for a node seen for the first time.

    The node joins the shard that ``assigned`` (node -> shard) holds the
    fewest nodes of; ties break toward the lowest index, so the initial
    (sorted) batch of a homogeneous cluster lands round-robin.
    """
    counts = [0] * shards
    for shard in assigned.values():
        counts[shard] += 1
    return counts.index(min(counts))


# ----------------------------------------------------------------------
# Cross-shard CPU arbitration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSplit:
    """One cycle's cross-shard CPU split.

    Attributes
    ----------
    level:
        The common utility level ``u*`` at which the shard-aggregated
        consumed curve exhausts the cluster budget (1.0 when every shard
        is in surplus, the bracket floor when all are starved).
    allocations:
        Per-shard long-running CPU price at ``u*``:
        ``min(consumed_s(u*), budget_s)`` (MHz).
    headrooms:
        Per-shard residual budget ``budget_s - allocation_s`` (>= 0) --
        the routing signal for newly-arrived jobs.
    levels:
        Per-shard *local* equalized level at the shard's full budget
        (NaN for empty shards); their spread is the ``shard_imbalance``
        telemetry.
    iterations:
        Consumed-curve bisection iterations performed.
    """

    level: float
    allocations: tuple[float, ...]
    headrooms: tuple[float, ...]
    levels: tuple[float, ...]
    iterations: int

    @property
    def imbalance(self) -> float:
        """Spread (max - min) of the populated shards' local levels; 0
        when fewer than two shards hold jobs."""
        populated = [lv for lv in self.levels if lv == lv]  # drop NaN
        if len(populated) < 2:
            return 0.0
        return max(populated) - min(populated)


class ShardArbiter:
    """Splits cluster CPU across shards on the aggregated consumed curve.

    Given per-shard budgets ``B_s`` and job populations, the arbiter
    bisects for the level ``u*`` solving::

        Σ_s min(consumed_s(u*), B_s) = min(Σ_s B_s, Σ_s total_cap_s)

    -- the same fixed point the monolithic
    :class:`~repro.core.hypothetical.HypotheticalEqualizer` solves per
    job, lifted one level up with each shard's consumption capped by its
    budget.  Everything is plain float bisection over the shards'
    memoized consumed curves, so the split is deterministic and costs
    O(shards x iterations x jobs-per-shard).
    """

    def __init__(self, iterations: int = _SPLIT_ITERS) -> None:
        if iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        self._iterations = iterations

    def split(
        self,
        budgets: Sequence[Mhz],
        populations: Sequence[JobPopulation],
    ) -> ShardSplit:
        if len(budgets) != len(populations):
            raise ConfigurationError("one budget per shard population required")
        equalizers = [HypotheticalEqualizer(p) for p in populations]
        levels = tuple(
            eq.metric_at(budget, "level", bisect_iters=self._iterations)
            if len(p)
            else float("nan")
            for eq, p, budget in zip(equalizers, populations, budgets)
        )
        populated = [eq for eq in equalizers if len(eq.population)]
        total_budget = float(sum(budgets))
        total_cap = sum(eq.total_cap for eq in populated)

        if not populated or total_cap <= total_budget:
            # Surplus: every shard's demand fits under its cap; budgets
            # bind only where a shard is individually oversubscribed.
            allocations = tuple(
                min(eq.total_cap, float(b)) for eq, b in zip(equalizers, budgets)
            )
            return self._result(1.0, allocations, budgets, levels, 0)

        def aggregate(u: float) -> float:
            return sum(
                min(eq.consumed(u), float(b))
                for eq, b in zip(equalizers, budgets)
                if len(eq.population)
            )

        u_lo = min(eq.bracket[0] for eq in populated)
        u_hi = max(eq.bracket[1] for eq in populated)
        iterations = 0
        if aggregate(u_lo) > total_budget:
            # Starved even at the bracket floor: budgets are exhausted
            # everywhere, no headroom to route toward.
            allocations = tuple(float(b) for b in budgets)
            return self._result(u_lo, allocations, budgets, levels, 0)
        for _ in range(self._iterations):
            u_mid = 0.5 * (u_lo + u_hi)
            if u_mid == u_lo or u_mid == u_hi:
                break
            iterations += 1
            if aggregate(u_mid) > total_budget:
                u_hi = u_mid
            else:
                u_lo = u_mid
        allocations = tuple(
            min(eq.consumed(u_lo), float(b)) if len(eq.population) else 0.0
            for eq, b in zip(equalizers, budgets)
        )
        return self._result(u_lo, allocations, budgets, levels, iterations)

    @staticmethod
    def _result(
        level: float,
        allocations: tuple[float, ...],
        budgets: Sequence[Mhz],
        levels: tuple[float, ...],
        iterations: int,
    ) -> ShardSplit:
        headrooms = tuple(
            max(float(b) - a, 0.0) for b, a in zip(budgets, allocations)
        )
        return ShardSplit(
            level=level,
            allocations=allocations,
            headrooms=headrooms,
            levels=levels,
            iterations=iterations,
        )


def route_by_headroom(
    demands: Sequence[Mhz], headrooms: Sequence[Mhz]
) -> list[int]:
    """Assign each demand to the shard with the most remaining headroom.

    Deterministic greedy: demands are taken in the given order, each goes
    to the currently-largest headroom (ties toward the lowest shard
    index), which is then debited by the demand.  Used by the sharded
    controller to place newly-arrived jobs; stickiness across cycles is
    the caller's concern.
    """
    if not headrooms:
        raise ConfigurationError("at least one shard required")
    remaining = [float(h) for h in headrooms]
    routes = []
    for demand in demands:
        best = max(range(len(remaining)), key=lambda s: (remaining[s], -s))
        routes.append(best)
        remaining[best] -= float(demand)
    return routes
