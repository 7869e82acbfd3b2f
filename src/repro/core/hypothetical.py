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

#: Newton steps the level predictor may spend on one solve.
_PREDICT_STEPS = 8

#: Depths short of float resolution at which a predicted level is verified:
#: the verified node is at least ``2**_VERIFY_MARGIN`` ulps wide, so a
#: prediction within a few ulps of the equalized level lands inside it.
_VERIFY_MARGIN = 6


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
    these per control cycle: how many vectorized passes over the
    population actually ran (exact consumed-curve evaluations and the
    level predictor's Newton steps alike), how many evaluations the
    shared memo served, and how often a predicted level verified
    (the bisection resumed mid-tree) versus fell back to the cold
    bracket.
    """

    __slots__ = ("evals", "cache_hits", "seed_hits", "seed_misses")

    def __init__(self) -> None:
        self.evals = 0
        self.cache_hits = 0
        self.seed_hits = 0
        self.seed_misses = 0


def _newton_step(allocation: float, value: float, slope: float) -> float:
    """Newton step toward ``consumed == allocation`` from a point of the
    curve with ``value`` and derivative ``slope``; NaN on a flat curve.

    The step is Newton's on ``1/consumed``: one uncapped job's rate is a
    hyperbola in the level, whose reciprocal is linear, and the
    reciprocal of a sum of them is concave and nearly linear.  Far below
    the level the plain step (``value`` much smaller than
    ``allocation``) would overshoot the whole bracket.
    """
    if not slope > 0:
        return math.nan
    step = (allocation - value) / slope
    if value > 0 and allocation > 0:
        step *= value / allocation
    return step


def _correction(last, point, step: float) -> float:
    """The correction Newton would make after taking ``step`` from
    ``point``: ``|h''/(2h')|·step²`` for ``h = 1/consumed``, with ``h''``
    the difference quotient of ``h'`` between the evaluated ``(level,
    value, slope)`` points ``last`` and ``point``; inf when unknown."""
    if last is None:
        return math.inf
    (u0, value0, slope0), (u1, value1, slope1) = last, point
    if u0 == u1 or not value0 > 0 or not value1 > 0:
        return math.inf
    dh0 = slope0 / (value0 * value0)
    dh1 = slope1 / (value1 * value1)
    if not dh1 > 0:
        return math.inf
    return abs((dh1 - dh0) / (u1 - u0)) / (2.0 * dh1) * step * step


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

    Every bisection (coarse or exact, at any allocation) starts from the
    same ``(u_lo, u_hi)`` bracket, so the midpoints it visits form one
    dyadic tree per population.  Each solve runs one path:

    * **predict** -- a few safeguarded Newton steps on the consumed curve
      (:meth:`_predict`, its own cheaper arithmetic) estimate the level,
      starting from the tangent of this equalizer's previous solve, else
      the warm level (:meth:`seed_level`), else the least job ceiling;
    * **verify** -- the dyadic node containing the prediction (or, when
      Newton did not converge, the predictor's bracket), at the
      bisection's own depth but no deeper than where the node is still
      ``2**_VERIFY_MARGIN`` ulps wide, is accepted only when
      ``consumed(lo) <= allocation < consumed(hi)`` holds on the exact
      curve.  The computed curve is monotone, so that invariant
      identifies the *unique* node the cold bisection occupies at that
      depth; a failing node is retried (its neighbour across the
      failing endpoint, then shallower nodes), last of all from the
      cold bracket;
    * **finish** -- the bisection runs its remaining iterations from the
      verified node.

    None of the predictor's arithmetic reaches a result: every level is
    the one the cold bisection computes, bit for bit.  A **shared
    consumed-curve memo**, keyed by exact float level, serves the floor
    check, the verification retries and external callers (the shard
    arbiter's aggregated bisection) without recomputing a node.
    """

    __slots__ = (
        "population", "stats", "_n", "_caps", "_weights", "_u_max", "_total_cap",
        "_goals_abs", "_goal_lengths", "_remaining", "_t",
        "_no_work", "_has_no_work", "_slack", "_rates_buf", "_nonpos",
        "_u_lo0", "_u_hi0", "_u_min", "_u_safe", "_memo",
        "_slack0", "_slack_floor", "_work_cap", "_warm_level", "_tangent",
    )

    def __init__(self, population: JobPopulation) -> None:
        self.population = population
        self.stats = EqualizerStats()
        self._memo: dict[float, float] = {}
        self._warm_level: float | None = None
        self._tangent: tuple[float, float, float] | None = None
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
        self._u_min = float(self._u_max.min())
        self._u_lo0 = self._u_min - UTILITY_SEARCH_SPAN
        # Predictor columns: the level-independent part of the slack, and
        # the slack at which each job reaches its cap (R/c; kept positive
        # so a zero-work job's 0/slack never divides by zero).
        self._slack0 = self._goals_abs - self._t
        self._slack_floor = np.maximum(self._remaining / self._caps, 1e-300)
        self._work_cap = float(np.where(self._no_work, 0.0, self._caps).sum())
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

    def seed_level(self, level: float) -> None:
        """Offer a starting point for the level predictor.

        ``level`` is typically the previous control cycle's converged
        utility level.  The predictor starts there until this equalizer
        has solved once (afterwards it starts from that solve's tangent).
        Any value is safe, NaN and infinities included: a start outside
        the bracket is replaced, and a prediction is used only after it
        verifies, so results are bit-identical to an unseeded run (see
        the class docstring).
        """
        self._warm_level = float(level)

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
        return float(np.add.reduce(rates_buf))  # == rates_buf.sum()

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

    def _curve_and_slope(self, u: float) -> tuple[float, float]:
        """The predictor's pass: the consumed curve and its derivative
        ``Σ_uncapped R_j·T_j / slack_j²`` at level ``u``.

        Cheaper than :meth:`_consumed_at` and rounded differently (the
        slack comes from the hoisted ``G − t``, and a capped job's slack
        is clamped at ``R/c``), so its values only steer the prediction.
        The clamp keeps every division finite at any level: the pass
        raises no floating-point warning.
        """
        slack, rates, uncapped = self._slack, self._rates_buf, self._nonpos
        np.multiply(self._goal_lengths, u, out=slack)  # u * T_j
        np.subtract(self._slack0, slack, out=slack)  # (G_j - t) - u * T_j
        np.greater(slack, self._slack_floor, out=uncapped)
        np.maximum(slack, self._slack_floor, out=slack)
        np.divide(self._remaining, slack, out=rates)  # min(x_j, ~c_j)
        value = float(np.add.reduce(rates))
        np.divide(rates, slack, out=rates)  # R_j / slack_j^2
        np.multiply(rates, uncapped, out=rates)
        return value, float(np.dot(rates, self._goal_lengths))

    def _verify_depth(self, level: float, bisect_iters: int) -> int:
        """Depth at which a prediction of ``level`` is verified: the
        bisection's own depth, capped where the node would be narrower
        than ``2**_VERIFY_MARGIN`` ulps of ``max(|level|, 1)`` (the
        prediction's rounding error is absolute near a zero level)."""
        ulp = math.ulp(max(abs(level), 1.0))
        resolution = math.frexp((self._u_hi0 - self._u_lo0) / ulp)[1] - 1
        return min(bisect_iters, resolution - _VERIFY_MARGIN)

    def _predict(self, allocation: float, bisect_iters: int) -> tuple[float, float]:
        """Safeguarded Newton estimate of the equalized level at ``allocation``.

        Starts from the tangent of this equalizer's previous solve, else
        the warm level, else the least job ceiling.  A step that leaves
        the bracket of evaluated levels, or a flat curve, bisects that
        bracket instead.  Stops once the step, or the correction Newton
        would make after it (:func:`_correction`), is small against the
        node a prediction near the start would be verified on, and returns
        ``(level, level)``.  Without convergence within ``_PREDICT_STEPS``
        passes it returns the bracket ``(lo, hi)`` of evaluated levels.
        """
        lo, hi = self._u_lo0, self._u_hi0
        if allocation >= self._work_cap:
            # Jobs without work keep the curve below their caps' sum:
            # consumed(u) <= allocation up to the top of the bracket.
            return hi, hi
        point = self._tangent
        if point is not None:
            u, value, slope = point
            step = _newton_step(allocation, value, slope)
            if step == step:
                u += step
        elif self._warm_level is not None:
            u = self._warm_level
        else:
            u = self._u_min
        if not lo < u < hi:  # outside the bracket, NaN or infinite
            u = self._u_min
        tol = math.ldexp(hi - lo, -self._verify_depth(u, bisect_iters))
        for _ in range(_PREDICT_STEPS):
            if not lo < u < hi:
                u = 0.5 * (lo + hi)
            value, slope = self._curve_and_slope(u)
            self.stats.evals += 1
            last, point = point, (u, value, slope)
            self._tangent = point
            if value > allocation:
                hi = u
            else:
                lo = u
            step = _newton_step(allocation, value, slope)
            if step != step:  # flat curve
                u = 0.5 * (lo + hi)
                continue
            if abs(step) <= tol or _correction(last, point, step) <= tol / 64:
                return u + step, u + step
            u += step
        return lo, hi

    def _descend(self, low: float, high: float, depth: int) -> tuple[float, float, int]:
        """The deepest node of the bisection tree, at most ``depth`` deep,
        that contains both ``low`` and ``high``, computed with the
        bisection's own midpoint arithmetic so its endpoints are bit-equal
        to the brackets a cold run carries."""
        lo, hi = self._u_lo0, self._u_hi0
        for d in range(depth):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                return lo, hi, d
            if high < mid:
                hi = mid
            elif low >= mid:
                lo = mid
            else:
                return lo, hi, d
        return lo, hi, depth

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
        # Verify: the cold bisection below keeps consumed(lo) <= allocation
        # < consumed(hi) (hi unevaluated only while it is the root's), and
        # by monotonicity of the computed curve exactly one node per depth
        # satisfies that.  A failing node says on which side the level
        # lies: the level moves across the failing endpoint, and the
        # retries (the neighbouring node, then ever shallower ones) close
        # in on it; the memo serves their shared endpoints.
        low, high = self._predict(allocation, bisect_iters)
        depth = self._verify_depth(0.5 * (low + high), bisect_iters)
        neighbour = True
        while depth >= 1:
            s_lo, s_hi, d = self._descend(low, high, depth)
            if d == 0:
                break
            if consumed(s_lo) > allocation:
                low = high = math.nextafter(s_lo, -math.inf)
            elif s_hi != u_hi and not consumed(s_hi) > allocation:
                low = high = s_hi
            else:
                u_lo, u_hi = s_lo, s_hi
                iters -= d
                break
            depth = d if neighbour else d // 2
            neighbour = False
        if iters < bisect_iters:
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
        if not allocation >= 0:  # also rejects NaN
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
        if not allocation >= 0:  # also rejects NaN
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


def mean_hypothetical_utility(
    population: JobPopulation, allocation: Mhz, *, start: float | None = None
) -> float:
    """The importance-weighted mean hypothetical utility at ``allocation``.

    ``start``, when given, starts the level predictor (typically the
    equalized level the controller found for the same population).  Any
    value is safe, NaN and infinities included: the result is bit-equal
    to an unseeded solve's (see :meth:`HypotheticalEqualizer.seed_level`).
    """
    equalizer = HypotheticalEqualizer(population)
    if start is not None:
        equalizer.seed_level(start)
    return equalizer.metric_at(allocation, "mean")
