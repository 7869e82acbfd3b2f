"""Hypothetical utility of the long-running workload (paper Section 2).

Predicting job utility mid-run would normally require computing optimal
schedules -- exponential in the number of nodes.  The paper's approximate
technique instead assumes that **all incomplete jobs can be placed
simultaneously** and that the workload's aggregate CPU power ``A`` can be
**arbitrarily finely divided** among them so that the *expected utility is
equalized* across jobs.

For job ``j`` at time ``t`` with remaining work ``R_j``, speed cap
``c_j``, absolute goal ``G_j`` and goal length ``T_j``:

* the rate needed to reach utility ``u`` is ``x_j(u) = R_j / (G_j − u·T_j − t)``
  (strictly increasing in ``u`` over its feasible range);
* the job's ceiling is ``u_j^max = (G_j − t − R_j/c_j) / T_j`` -- beyond it
  the speed cap binds and the job consumes exactly ``c_j``.

The equalized level ``u*`` solves ``Σ_j min(x_j(u), c_j) = A``; the left
side is continuous and non-decreasing in ``u``, so a bisection finds it.
Everything is vectorized over the job population (numpy), keeping each
control cycle O(n · iterations).

The routine also powers two controller decisions:

* per-job **target rates** ``min(x_j(u*), c_j)`` handed to the placement
  solver (most-urgent jobs get the highest rates);
* the workload's **hypothetical utility** -- the paper's Figure 1 plots
  the population average, ``mean_j min(u*, u_j^max)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ModelError
from ..perf.jobmodel import JobPopulation
from ..types import Mhz

#: How far below the least-achievable job ceiling the bisection will search.
#: A span of 8 means "up to 8 goal-lengths late"; beyond that the allocation
#: is so scarce that rates are scaled proportionally instead (keeps the
#: utility level finite, which the arbiter requires).
UTILITY_SEARCH_SPAN = 8.0

#: Bisection iterations; 2^-100 of the search span is far below float noise.
_BISECT_ITERS = 100

#: Relative tolerance when comparing allocation with the population cap.
_REL_EPS = 1e-9


@dataclass(frozen=True)
class HypotheticalAllocation:
    """Result of equalizing hypothetical utility over a job population.

    Attributes
    ----------
    utility_level:
        The equalized level ``u*`` (the marginal utility of CPU).  When the
        allocation covers every speed cap this is the largest per-job
        ceiling; for an empty population it is 1.0 (fully satisfied).
    rates:
        Per-job CPU targets (MHz), ``Σ rates <= allocation`` (+ float slop).
    utilities:
        Per-job hypothetical utilities ``min(u*, u_j^max)``.
    mean_utility:
        Importance-weighted average of ``utilities`` -- the quantity the
        paper's Figure 1 reports for the long-running workload.
    consumed:
        ``Σ rates``.
    """

    utility_level: float
    rates: np.ndarray
    utilities: np.ndarray
    mean_utility: float
    consumed: Mhz


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    total_weight = float(weights.sum())
    if total_weight <= 0:
        # All-zero importance: fall back to the unweighted mean.
        return float(values.mean())
    return float(np.dot(values, weights) / total_weight)


class EqualizerStats:
    """Consumed-curve evaluation accounting for one equalizer.

    The control plane's telemetry (``repro.core.control_state``) reports
    these per control cycle: how many consumed-curve evaluations actually
    ran, how many were served by the shared memo, and how often the
    cross-cycle warm seed verified (resuming the bisection mid-tree)
    versus fell back to the cold bracket.
    """

    __slots__ = ("evals", "cache_hits", "seed_hits", "seed_misses")

    def __init__(self) -> None:
        self.evals = 0
        self.cache_hits = 0
        self.seed_hits = 0
        self.seed_misses = 0


#: Regime tags returned by ``HypotheticalEqualizer._solve_level``.
_SURPLUS, _STARVED, _EQUALIZED = 0, 1, 2


class HypotheticalEqualizer:
    """Reusable equalization context for one population snapshot.

    The arbiter evaluates the long-running utility curve a dozen-plus
    times per control cycle, always over the *same* population.  This
    class hoists everything allocation-independent -- utility ceilings,
    total cap, the zero-work mask and the bisection scratch buffers --
    so each :meth:`equalize` call pays only for its bisection.  The
    arithmetic is operation-for-operation identical to the original
    single-shot routine (results are bit-identical).

    Two further accelerations, both result-preserving:

    * a **shared consumed-curve memo**: every bisection (coarse or exact,
      at any allocation) starts from the same ``(u_lo, u_hi)`` bracket,
      so the midpoints it visits form one dyadic tree per population.
      Memoizing ``consumed(u)`` by exact float key lets the arbiter's
      ~15 equalizations share root-side evaluations -- and lets the final
      float-exact equalization replay its first iterations for free --
      while reproducing the identical values an uncached run computes.
    * a **verified warm seed** (:meth:`seed_level`): the previous control
      cycle's converged utility level selects a candidate subtree at a
      chosen depth; the bisection resumes there only after verifying the
      invariant ``consumed(lo) <= allocation < consumed(hi)``, which (by
      monotonicity of the consumed curve) identifies the *unique* node
      the cold bisection would occupy at that depth.  A verified seed
      therefore yields bit-identical results; an unverified one falls
      back to the cold bracket.
    """

    __slots__ = (
        "population", "stats", "_n", "_caps", "_weights", "_u_max", "_total_cap",
        "_goals_abs", "_goal_lengths", "_remaining", "_t",
        "_no_work", "_has_no_work", "_slack", "_rates_buf", "_nonpos",
        "_u_lo0", "_u_hi0", "_u_safe", "_memo", "_seed_level", "_seed_depth",
    )

    def __init__(self, population: JobPopulation) -> None:
        self.population = population
        self.stats = EqualizerStats()
        self._memo: dict[float, float] = {}
        self._seed_level: float | None = None
        self._seed_depth = 0
        n = self._n = len(population)
        if n == 0:
            return
        self._caps = population.caps
        self._weights = population.importance
        self._u_max = population.max_achievable_utility()
        self._total_cap = float(self._caps.sum())
        self._goals_abs = population.goals_abs
        self._goal_lengths = population.goal_lengths
        self._remaining = population.remaining
        self._t = population.time
        self._no_work = self._remaining <= 0.0
        self._has_no_work = bool(self._no_work.any())
        self._slack = np.empty(n, dtype=float)
        self._rates_buf = np.empty(n, dtype=float)
        self._nonpos = np.empty(n, dtype=bool)
        # The bisection bracket is allocation-independent; hoisting it
        # keeps every equalization on the identical dyadic tree.
        self._u_hi0 = float(self._u_max.max())
        self._u_lo0 = float(self._u_max.min()) - UTILITY_SEARCH_SPAN
        # Conservative level below which every *computed* slack is
        # provably positive, so the per-eval lateness mask can be skipped
        # (see _consumed_at).  The bound over-counts the three rounding
        # steps of the slack computation by >2x, then shaves a relative
        # and absolute margin for its own rounding; being conservative
        # only costs taking the masked path, never changes a result.
        eps = 2.0**-52
        u_span = max(abs(self._u_lo0), abs(self._u_hi0))
        err = eps * (
            3.0 * u_span * self._goal_lengths
            + 2.0 * np.abs(self._goals_abs)
            + abs(self._t)
        )
        u_safe = float(((self._goals_abs - self._t - err) / self._goal_lengths).min())
        self._u_safe = u_safe - abs(u_safe) * 1e-12 - 1e-12

    @property
    def total_cap(self) -> Mhz:
        """Aggregate speed cap of the population (0 when empty)."""
        return self._total_cap if self._n else 0.0

    @property
    def bracket(self) -> tuple[float, float]:
        """The allocation-independent bisection bracket ``(u_lo0, u_hi0)``.

        Undefined (``(0.0, 0.0)``) for an empty population.  Exposed for
        callers that bisect an *aggregated* consumed curve over several
        equalizers (the sharded control plane's top-level arbiter,
        :mod:`repro.core.shard_arbiter`).
        """
        if self._n == 0:
            return 0.0, 0.0
        return self._u_lo0, self._u_hi0

    def consumed(self, u: float) -> Mhz:
        """``Σ_j min(x_j(u), c_j)`` -- the consumed curve at level ``u``.

        Memoized by exact float key like every internal evaluation, so
        external bisections (the shard arbiter) share the same memo as
        :meth:`equalize` / :meth:`metric_at`.  0 for an empty population.
        """
        if self._n == 0:
            return 0.0
        return self._consumed(u)

    def seed_level(self, level: float, depth: int) -> None:
        """Offer a warm-start hint for subsequent bisections.

        ``level`` is typically the previous control cycle's converged
        utility level; ``depth`` how many bisection iterations to skip
        when the hint verifies.  The hint is advisory: each bisection
        checks the invariant ``consumed(lo) <= allocation < consumed(hi)``
        on the depth-``depth`` dyadic node containing ``level`` and
        resumes there only on success, so results are bit-identical to an
        unseeded run either way (see the class docstring).
        """
        if level != level:  # NaN guard: never seed from a poisoned level
            return
        self._seed_level = float(level)
        self._seed_depth = int(depth)

    def _consumed_at(self, u: float) -> float:
        """``Σ min(x_j(u), c_j)`` on reused buffers.

        Exact operation sequence of ``JobPopulation.required_rates``
        (bit-identical sums) without its per-call allocations and
        ufunc-context setup.
        """
        slack, rates_buf, nonpos = self._slack, self._rates_buf, self._nonpos
        np.multiply(self._goal_lengths, u, out=slack)  # u * T_j
        np.subtract(self._goals_abs, slack, out=slack)  # G_j - u * T_j
        np.subtract(slack, self._t, out=slack)  # (G_j - u * T_j) - t
        if u < self._u_safe:
            # Every computed slack is provably positive at this level:
            # the mask would be all-False, so skip building it.
            np.maximum(slack, 1e-300, out=slack)
            np.divide(self._remaining, slack, out=rates_buf)
        else:
            np.less_equal(slack, 0.0, out=nonpos)
            np.maximum(slack, 1e-300, out=slack)
            np.divide(self._remaining, slack, out=rates_buf)
            if nonpos.any():
                rates_buf[nonpos] = np.inf  # no finite rate reaches u
        if self._has_no_work:
            rates_buf[self._no_work] = 0.0
        np.minimum(rates_buf, self._caps, out=rates_buf)
        return float(rates_buf.sum())

    def _consumed(self, u: float) -> float:
        """Memoized :meth:`_consumed_at` (keys are exact float levels)."""
        value = self._memo.get(u)
        if value is not None:
            self.stats.cache_hits += 1
            return value
        value = self._consumed_at(u)
        self.stats.evals += 1
        self._memo[u] = value
        return value

    def _descend(self, level: float, depth: int) -> tuple[float, float, int]:
        """The depth-``depth`` dyadic node of the bisection tree containing
        ``level``, computed with the bisection's own midpoint arithmetic so
        its endpoints are bit-equal to the brackets a cold run carries."""
        lo, hi = self._u_lo0, self._u_hi0
        d = 0
        while d < depth:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if level < mid:
                hi = mid
            else:
                lo = mid
            d += 1
        return lo, hi, d

    def _solve_level(self, allocation: Mhz, bisect_iters: int) -> tuple[int, float]:
        """Classify the regime at ``allocation`` and find its utility level.

        Returns ``(_SURPLUS, u_hi0)``, ``(_STARVED, u_lo0)`` or
        ``(_EQUALIZED, u_star)``; shared by :meth:`equalize` (full
        result) and :meth:`metric_at` (scalar-only callers).
        """
        if allocation >= self._total_cap * (1 - _REL_EPS):
            return _SURPLUS, self._u_hi0
        consumed = self._consumed
        u_lo = self._u_lo0
        u_hi = self._u_hi0
        if consumed(u_lo) > allocation:
            return _STARVED, u_lo
        iters = bisect_iters
        if self._seed_level is not None:
            # Invariant check: the seeded node must be the one the cold
            # bisection occupies at its depth (unique by monotonicity of
            # the consumed curve).  Cascade from the requested depth to
            # shallower nodes: a deeper node tolerates less drift in the
            # level, and failed probes stay in the memo where the resumed
            # bisection can reuse them.
            seeded = False
            want = min(self._seed_depth, bisect_iters)
            while want >= 1:
                s_lo, s_hi, depth = self._descend(self._seed_level, want)
                if (
                    depth > 0
                    and not consumed(s_lo) > allocation
                    and consumed(s_hi) > allocation
                ):
                    u_lo, u_hi = s_lo, s_hi
                    iters = bisect_iters - depth
                    seeded = True
                    break
                want //= 2
            if seeded:
                self.stats.seed_hits += 1
            else:
                self.stats.seed_misses += 1
        # Loop invariant: consumed(u_lo) <= allocation (checked above for
        # the initial floor, preserved by construction).  Once the interval
        # collapses to float resolution the midpoint lands on an endpoint and
        # no further iteration can move ``u_lo``, so breaking early returns
        # the *identical* result the fixed 100-iteration loop would -- it
        # just skips the ~45 no-op evaluations past ~55 iterations.
        for _ in range(iters):
            u_mid = 0.5 * (u_lo + u_hi)
            if u_mid == u_lo:
                break  # consumed(u_lo) <= allocation: u_lo re-selected forever
            if consumed(u_mid) > allocation:
                if u_mid == u_hi:
                    break  # u_hi re-selected forever; state frozen
                u_hi = u_mid
            else:
                u_lo = u_mid
        return _EQUALIZED, u_lo  # consumed(u_lo) <= allocation: never over-commits

    def metric_at(
        self, allocation: Mhz, metric: str, *, bisect_iters: int = _BISECT_ITERS
    ) -> float:
        """The ``"mean"`` or ``"level"`` scalar of :meth:`equalize`.

        Skips the per-job rate computation the arbiter never looks at;
        the returned scalar is bit-equal to the corresponding attribute
        of the full :class:`HypotheticalAllocation`.
        """
        if allocation < 0:
            raise ModelError(f"allocation must be non-negative, got {allocation}")
        if self._n == 0:
            return 1.0
        regime, u = self._solve_level(allocation, bisect_iters)
        u_max = self._u_max
        if regime == _SURPLUS:
            if metric == "level":
                return float(u_max.max())
            return _weighted_mean(u_max, self._weights)
        if metric == "level":
            return u
        utilities = np.minimum(np.full(self._n, u), u_max)
        return _weighted_mean(utilities, self._weights)

    def equalize(
        self, allocation: Mhz, *, bisect_iters: int = _BISECT_ITERS
    ) -> HypotheticalAllocation:
        """Divide ``allocation`` MHz among the jobs, equalizing utility.

        See :func:`equalize_hypothetical_utility` for the regimes and the
        ``bisect_iters`` contract.
        """
        if allocation < 0:
            raise ModelError(f"allocation must be non-negative, got {allocation}")
        n = self._n
        if n == 0:
            return HypotheticalAllocation(
                utility_level=1.0,
                rates=np.empty(0, dtype=float),
                utilities=np.empty(0, dtype=float),
                mean_utility=1.0,
                consumed=0.0,
            )
        population = self.population
        caps = self._caps
        weights = self._weights
        u_max = self._u_max

        regime, level = self._solve_level(allocation, bisect_iters)

        if regime == _SURPLUS:
            # The allocation covers every cap; no trade-off to make.
            rates = np.where(population.remaining > 0, caps, 0.0)
            return HypotheticalAllocation(
                utility_level=float(u_max.max()),
                rates=rates,
                utilities=u_max.copy(),
                mean_utility=_weighted_mean(u_max, weights),
                consumed=float(rates.sum()),
            )

        if regime == _STARVED:
            # Even the floor level over-consumes.  Scale the floor-level
            # rates down proportionally; the level reported is the floor
            # (finite), preserving monotonicity for the arbiter.
            rates_floor = np.minimum(population.required_rates(level), caps)
            total = float(rates_floor.sum())
            scale = allocation / total if total > 0 else 0.0
            rates = rates_floor * scale
            utilities = np.minimum(np.full(n, level), u_max)
            return HypotheticalAllocation(
                utility_level=level,
                rates=rates,
                utilities=utilities,
                mean_utility=_weighted_mean(utilities, weights),
                consumed=float(rates.sum()),
            )

        rates = np.minimum(population.required_rates(level), caps)
        utilities = np.minimum(np.full(n, level), u_max)
        return HypotheticalAllocation(
            utility_level=level,
            rates=rates,
            utilities=utilities,
            mean_utility=_weighted_mean(utilities, weights),
            consumed=float(rates.sum()),
        )


def equalize_hypothetical_utility(
    population: JobPopulation, allocation: Mhz, *, bisect_iters: int = _BISECT_ITERS
) -> HypotheticalAllocation:
    """Divide ``allocation`` MHz among the jobs, equalizing expected utility.

    Implements the paper's hypothetical-utility computation (Section 2).
    See the module docstring for the mathematics; three regimes:

    * **surplus** (``allocation >= Σ c_j``): every job runs at its cap and
      achieves its ceiling utility;
    * **equalizable**: the bisection finds ``u*`` with consumption equal
      to the allocation;
    * **starved** (the equalized level would fall below the search floor):
      rates are scaled proportionally to fit and the level is clamped,
      keeping the result finite and monotone in ``allocation``.

    ``bisect_iters`` bounds the bisection (default: float-exact).  Callers
    that only compare utility *levels* against a loose tolerance -- the
    arbiter evaluates curves against 1e-4 -- may pass fewer iterations;
    ``u*`` is then accurate to ``span * 2**-bisect_iters``.

    Callers evaluating many allocations over one population should hold a
    :class:`HypotheticalEqualizer` instead of re-entering here.
    """
    return HypotheticalEqualizer(population).equalize(
        allocation, bisect_iters=bisect_iters
    )


def longrunning_max_utility_demand(population: JobPopulation) -> Mhz:
    """CPU demand at which the long-running workload's utility peaks.

    Every incomplete job running at its speed cap -- the paper's Figure 2
    plots this as the "long running demand" curve.
    """
    if len(population) == 0:
        return 0.0
    return float(np.where(population.remaining > 0, population.caps, 0.0).sum())


def mean_hypothetical_utility(population: JobPopulation, allocation: Mhz) -> float:
    """Shortcut: the importance-weighted mean hypothetical utility at ``allocation``."""
    return equalize_hypothetical_utility(population, allocation).mean_utility
