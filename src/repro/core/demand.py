"""Workload utility curves: utility as a function of aggregate allocation.

The arbiter (:mod:`repro.core.arbiter`) trades CPU between the two
workload types by comparing these curves.  Each curve is non-decreasing in
the allocation and saturates at the workload's *max-utility demand* --
"the CPU demand that would make each workload achieve its maximum
utility" (paper Figure 2).

* :class:`TransactionalCurve` -- one web application through its
  performance model and response-time utility.
* :class:`TransactionalAggregateCurve` -- several web applications treated
  as one workload: the aggregate allocation is divided so that the apps'
  utilities are equalized (the same fairness principle the paper applies
  within the long-running workload), and the common level is the
  aggregate's utility.
* :class:`LongRunningCurve` -- the job population through hypothetical
  utility equalization.
"""

from __future__ import annotations

import math
from typing import Literal, Protocol, Sequence

from ..errors import ConfigurationError, ModelError
from ..perf.jobmodel import JobPopulation
from ..perf.queueing import TransactionalPerfModel
from ..types import Mhz, WorkloadKind
from ..utility.transactional import TransactionalUtility
from .hypothetical import HypotheticalAllocation, HypotheticalEqualizer

#: Which scalar of the hypothetical allocation the arbiter compares:
#: the population mean (what Figure 1 plots) or the equalized level.
LongRunningMetric = Literal["mean", "level"]

#: Bisection depth for arbiter-facing curve evaluations.  The arbiter
#: compares utilities against a 1e-4 tolerance, so driving the inner
#: equalization to float exactness (~55 effective iterations) buys
#: nothing: 30 iterations bound the level error by ~1e-8, four orders
#: of magnitude below the arbiter's resolution.  The equalizer's level
#: predictor usually verifies the depth-30 node outright (a few Newton
#: passes plus its two endpoint checks), where the float-exact solve
#: still bisects the last few ulps.  The *final* equalization that
#: produces per-job target rates (:meth:`LongRunningCurve.equalize`)
#: always runs float-exact.
_CURVE_EVAL_ITERS = 30


class UtilityCurve(Protocol):
    """Monotone utility-versus-allocation curve of one workload."""

    @property
    def kind(self) -> WorkloadKind:
        """The workload type this curve describes."""
        ...

    @property
    def max_utility_demand(self) -> Mhz:
        """Allocation at which the curve saturates."""
        ...

    def utility(self, allocation: Mhz) -> float:
        """Predicted utility at the given aggregate allocation."""
        ...


class TransactionalCurve:
    """Utility curve of a single web application."""

    def __init__(
        self,
        model: TransactionalPerfModel,
        utility_fn: TransactionalUtility,
        rt_tolerance: float = 0.05,
    ) -> None:
        self._model = model
        self._utility = utility_fn
        self._demand = model.max_utility_demand(rt_tolerance)

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.TRANSACTIONAL

    @property
    def max_utility_demand(self) -> Mhz:
        return self._demand

    @property
    def model(self) -> TransactionalPerfModel:
        """The underlying performance model (exposed for diagnostics)."""
        return self._model

    def utility(self, allocation: Mhz) -> float:
        if not allocation >= 0:  # also rejects NaN
            raise ModelError(f"allocation must be non-negative, got {allocation}")
        return self._utility.of_allocation(self._model, allocation)

    def allocation_for_utility(self, target: float) -> Mhz:
        """Smallest allocation reaching ``target`` utility (capped at demand)."""
        return min(
            self._utility.allocation_for_utility(self._model, target), self._demand
        )

    def max_utility(self) -> float:
        """The plateau utility value."""
        return self._utility.max_utility(self._model)


class TransactionalAggregateCurve:
    """Several web applications arbitrated as one transactional workload.

    Given an aggregate allocation, the member applications' utilities are
    equalized by bisection on the common utility level (each app's
    required allocation at a level comes from inverting its response-time
    model).  Apps whose plateau lies below the common level are capped at
    their max-utility demand.
    """

    def __init__(self, curves: Sequence[TransactionalCurve]) -> None:
        if not curves:
            raise ConfigurationError("aggregate needs at least one app curve")
        self._curves = list(curves)
        self._demand = sum(c.max_utility_demand for c in self._curves)

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.TRANSACTIONAL

    @property
    def max_utility_demand(self) -> Mhz:
        return self._demand

    @property
    def members(self) -> list[TransactionalCurve]:
        """The member app curves, in construction order."""
        return list(self._curves)

    def split(self, allocation: Mhz) -> list[Mhz]:
        """Divide ``allocation`` among the apps, equalizing their utilities."""
        if not allocation >= 0:  # also rejects NaN
            raise ModelError(f"allocation must be non-negative, got {allocation}")
        if len(self._curves) == 1:
            return [min(allocation, self._demand)]
        if allocation >= self._demand:
            return [c.max_utility_demand for c in self._curves]

        def consumed(level: float) -> float:
            return sum(
                min(c.allocation_for_utility(min(level, c.max_utility())), c.max_utility_demand)
                for c in self._curves
            )

        hi = max(c.max_utility() for c in self._curves)
        lo = hi - 1.0
        for _ in range(60):  # expand until feasible
            if consumed(lo) <= allocation:
                break
            lo = hi - 2 * (hi - lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if consumed(mid) > allocation:
                hi = mid
            else:
                lo = mid
        return [
            min(c.allocation_for_utility(min(lo, c.max_utility())), c.max_utility_demand)
            for c in self._curves
        ]

    def utility(self, allocation: Mhz) -> float:
        shares = self.split(allocation)
        return min(
            c.utility(share) for c, share in zip(self._curves, shares)
        ) if len(self._curves) > 1 else self._curves[0].utility(shares[0])


class LongRunningCurve:
    """Utility curve of the long-running workload via hypothetical utility.

    Each evaluation runs a hypothetical-utility equalization, the single
    most expensive operation on the control cycle's hot path, so the
    curve holds one :class:`HypotheticalEqualizer` (the allocation-
    independent setup is shared across the arbiter's dozen-plus
    evaluations) and memoizes :meth:`utility` by allocation -- the
    arbiter re-evaluates its accepted split, and a curve instance is
    built fresh from one population snapshot per cycle, so the memo
    cannot go stale.  :meth:`utility` results are coarse
    (``_CURVE_EVAL_ITERS``); :meth:`equalize` is float-exact and
    uncached -- the controller calls it exactly once per cycle for the
    per-job target rates.
    """

    def __init__(self, population: JobPopulation, metric: LongRunningMetric = "mean") -> None:
        if metric not in ("mean", "level"):
            raise ConfigurationError(f"unknown long-running metric {metric!r}")
        self._population = population
        self._metric = metric
        self._demand = float(population.total_cap) if len(population) else 0.0
        self._equalizer = HypotheticalEqualizer(population)
        self._utility_memo: dict[float, float] = {}

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.LONG_RUNNING

    @property
    def max_utility_demand(self) -> Mhz:
        return self._demand

    @property
    def population(self) -> JobPopulation:
        """The underlying job-population snapshot."""
        return self._population

    @property
    def equalizer(self) -> HypotheticalEqualizer:
        """The shared equalization context (stats, warm level)."""
        return self._equalizer

    def warm_seed(self, level: float) -> None:
        """Start the equalizer's level predictor from a previous converged level.

        Only a starting point: every prediction is verified against the
        cold bisection's invariant, so every curve evaluation stays
        bit-identical (see
        :meth:`repro.core.hypothetical.HypotheticalEqualizer.seed_level`).
        """
        self._equalizer.seed_level(level)

    def equalize(self, allocation: Mhz) -> "HypotheticalAllocation":
        """Float-exact equalization at ``allocation``."""
        return self._equalizer.equalize(allocation)

    def utility(self, allocation: Mhz) -> float:
        memo = self._utility_memo.get(allocation)
        if memo is not None:
            return memo
        value = self._equalizer.metric_at(
            allocation, self._metric, bisect_iters=_CURVE_EVAL_ITERS
        )
        self._utility_memo[allocation] = value
        return value

    def max_utility(self) -> float:
        """The plateau: every job at its speed cap."""
        if len(self._population) == 0:
            return 1.0
        return self.utility(self._demand + 1.0)


def effective_capacity(total_capacity: Mhz, efficiency: float = 1.0) -> Mhz:
    """Capacity the arbiter may hand out.

    ``efficiency`` (0, 1] discounts for placement fragmentation -- the
    divisible-CPU arbitration slightly overestimates what an integral
    placement can deliver; a discount below 1 makes the arbiter's promises
    conservatively realizable.
    """
    if not 0 < efficiency <= 1:
        raise ConfigurationError("efficiency must be in (0, 1]")
    if total_capacity < 0 or math.isinf(total_capacity):
        raise ConfigurationError("total_capacity must be finite and non-negative")
    return total_capacity * efficiency
