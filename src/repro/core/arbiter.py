"""Cross-workload CPU arbitration.

Given the utility curves of the transactional and long-running workloads
and the cluster's (effective) capacity, the arbiter chooses the CPU split
that maximizes the *minimum* utility -- which, when both workloads are
CPU-constrained, means **equalizing** their utilities, and otherwise means
capping each at its max-utility demand and handing the surplus to the
other.  This is the decision the paper describes as "continuously stealing
resources [from] the more satisfied applications to later be given to the
less satisfied applications".

Two interchangeable implementations with the same fixed point:

* :class:`StealingArbiter` -- the paper's prose, literally: move a quantum
  of CPU from the more satisfied workload to the less satisfied one,
  shrinking the quantum when the imbalance flips sign.
* :class:`BisectionArbiter` -- exploits monotonicity of both curves to
  bisect on the split directly, probing only what no earlier probe
  settles; used as the default (fast path).

The ABL-ARB ablation bench compares their costs and verifies fixed-point
agreement.

Fewer and cheaper probes
------------------------
Each ``gap`` probe of :class:`BisectionArbiter` runs a hypothetical-utility
equalization, and the split it returns is the first bisection midpoint
whose gap lies within the tolerance, so the *path* of the plain
bisection decides the placement.  The arbiter keeps that path and skips
the probes it does not need:

* **predict** -- one approximate solve of the continuous split, in the
  demand view of paper Figure 2: the utility ``v`` at which the curves'
  inverses (:meth:`~repro.core.demand.UtilityCurve.inverse`) ask for
  exactly the capacity.  The long-running inverse is one predictor pass
  of the equalizer, counted in its ``eq_evals``; none of this arithmetic
  reaches a result.  It gives the splits where the gap crosses ``-tol``
  and ``tol``, and walking the bisection tree against them names three
  nodes: the last midpoint that goes right, the last that goes left and
  the first inside the band;
* **verify** -- those nodes are probed exactly, the band's node last so
  that the float-exact equalization of the accepted split starts from
  its tangent;
* **replay** -- the plain bisection runs again over what the probes
  settled: a probe whose gap is below ``-tol`` sends every midpoint at or
  left of it right, one above ``tol`` every midpoint at or right of it
  left, and any other midpoint is probed exactly, as before.

A wrong prediction costs probes, never a result.  The replay is exact
because the *computed* gap is non-decreasing in the split, not only the
mathematical one:

* the closed model's response time (a division by the allocation, a
  subtraction and a ``max``), a network delay (a constant added) and the
  linear utility shape (a difference, a division by the goal and a clip)
  are each monotone after rounding, so ``U_tx`` is non-decreasing; an
  aggregate's shares come from a level bisection over the apps' inverses,
  each monotone up to and through its ceiling (where it stays at the
  app's demand, at any ``rt_tolerance``), and its utility is the least
  app utility;
* ``capacity − a`` is non-increasing in ``a``;
* the long-running curve's depth-30 level is the unique node of one
  fixed dyadic tree with ``consumed(lo) <= c < consumed(hi)`` on a
  monotone computed consumed curve, so it is non-decreasing in the
  allocation ``c``;
* the long-running utility ``M`` is the level itself, or a ``min`` with
  each job's ceiling followed by a dot product with non-negative weights.

Where that is not established a curve's ``inverse`` returns ``None`` --
a non-linear utility shape, the open model's Erlang-C response time, a
``"mean"`` over a negative importance -- and the split runs the same
replay with nothing settled in advance, which is the plain bisection:
its own probes never settle a later midpoint, so this needs no
monotonicity.  The transactional inverse is asked first, so a split
whose transactional curve declines pays no predictor pass.  Each probe
stays cheap underneath: :class:`~repro.core.demand.LongRunningCurve`'s
equalizer predicts the level from its previous probe's tangent and
resumes the bisection at the prediction's node once that node verifies (see
:class:`~repro.core.hypothetical.HypotheticalEqualizer`), and every
utility stays bit-identical.  ``ArbiterResult.iterations`` still counts
the plain bisection's *logical* curve evaluations, so the ablation's
cost metric and the golden ``arbiter_iterations`` are unaffected by
what happens underneath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from ..errors import ConfigurationError
from ..types import Mhz
from .demand import UtilityCurve

#: Newton steps the split prediction may spend (each one predictor pass of
#: the long-running equalizer).
_PREDICT_STEPS = 12

#: Newton step, as a fraction of the utility tolerance, below which the
#: split prediction has converged.
_PREDICT_RESOLUTION = 1e-3


@dataclass(frozen=True)
class ArbiterResult:
    """The arbiter's split decision and its predicted consequences.

    Attributes
    ----------
    tx_allocation / lr_allocation:
        CPU granted to the transactional / long-running workload (MHz).
        Their sum can be below capacity when both demands are satisfied.
    tx_utility / lr_utility:
        Predicted utilities at those allocations.
    iterations:
        Logical curve evaluations of the plain bisection (the ablation's
        cost metric); the exact ones show in ``eq_evals``.
    equalized:
        True when both workloads were CPU-constrained and their utilities
        were driven together; False when at least one demand was satisfied
        outright.
    """

    tx_allocation: Mhz
    lr_allocation: Mhz
    tx_utility: float
    lr_utility: float
    iterations: int
    equalized: bool

    @property
    def utility_gap(self) -> float:
        """|U_tx − U_lr|; small when equalization succeeded."""
        return abs(self.tx_utility - self.lr_utility)


class Arbiter(Protocol):
    """CPU-split decision procedure between the two workload types."""

    def split(
        self, capacity: Mhz, tx_curve: UtilityCurve, lr_curve: UtilityCurve
    ) -> ArbiterResult:
        """Choose allocations with ``tx + lr <= capacity``."""
        ...


def _saturated_split(
    capacity: Mhz, tx_curve: UtilityCurve, lr_curve: UtilityCurve
) -> ArbiterResult | None:
    """Handle the no-contention cases; ``None`` when real arbitration is needed."""
    tx_demand = tx_curve.max_utility_demand
    lr_demand = lr_curve.max_utility_demand
    if tx_demand + lr_demand <= capacity:
        # Everyone gets what they can use; surplus stays idle.
        return ArbiterResult(
            tx_allocation=tx_demand,
            lr_allocation=lr_demand,
            tx_utility=tx_curve.utility(tx_demand),
            lr_utility=lr_curve.utility(lr_demand),
            iterations=2,
            equalized=False,
        )
    return None


class BisectionArbiter:
    """Equalizes workload utilities by bisection on the transactional share.

    ``g(a) = U_tx(a) − U_lr(capacity − a)`` is non-decreasing in ``a``
    (both curves are non-decreasing in their own allocation), so the
    equal-utility split is a root of ``g`` and bisection converges
    unconditionally.  The search interval is pre-clamped to
    ``[capacity − lr_demand, tx_demand]``: allocating a workload more than
    its max-utility demand cannot raise its utility, so splits outside the
    interval are dominated.

    The bisection is replayed over what exact probes already decided
    (see the module docstring): a predicted path names three nodes to
    probe first, and every midpoint on the side of a probe its gap
    settles goes that way without a probe of its own.
    """

    def __init__(self, utility_tolerance: float = 1e-4, max_iterations: int = 80) -> None:
        if utility_tolerance <= 0:
            raise ConfigurationError("utility_tolerance must be positive")
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        self.utility_tolerance = utility_tolerance
        self.max_iterations = max_iterations

    def split(
        self, capacity: Mhz, tx_curve: UtilityCurve, lr_curve: UtilityCurve
    ) -> ArbiterResult:
        if not capacity >= 0:  # also rejects NaN
            raise ConfigurationError(f"capacity must be non-negative, got {capacity}")
        saturated = _saturated_split(capacity, tx_curve, lr_curve)
        if saturated is not None:
            return saturated

        lo = max(0.0, capacity - lr_curve.max_utility_demand)
        hi = min(capacity, tx_curve.max_utility_demand)
        tol = self.utility_tolerance
        probes = _Probes(capacity, tx_curve, lr_curve, tol)

        # Boundary-dominant cases: one workload stays ahead even at its
        # least favourable split inside the clamped interval.
        if probes.gap(hi) <= 0:
            a, evals = hi, 2
        elif probes.gap(lo) >= 0:
            a, evals = lo, 4
        else:
            band = _predicted_band(
                capacity, tx_curve, lr_curve, probes.utilities[lo], probes.utilities[hi], tol
            )
            if band is not None:
                probes.probe_unsettled(_path_nodes(lo, hi, *band, self.max_iterations))
            # The plain bisection, probing only the midpoints no probe
            # settled; ``evals`` counts its logical curve evaluations.
            evals = 4
            a_lo, a_hi = lo, hi
            for _ in range(self.max_iterations):
                a = 0.5 * (a_lo + a_hi)
                evals += 2
                goes_right = probes.settled(a)
                if goes_right is None:
                    g_mid = probes.gap(a)
                    if abs(g_mid) <= tol:
                        break
                    goes_right = not g_mid > 0
                if goes_right:
                    a_lo = a
                else:
                    a_hi = a
            else:
                a = 0.5 * (a_lo + a_hi)

        tx_u, lr_u = probes.utilities[a] if a in probes.utilities else (
            tx_curve.utility(a), lr_curve.utility(capacity - a)
        )
        return ArbiterResult(
            tx_allocation=a,
            lr_allocation=capacity - a,
            tx_utility=tx_u,
            lr_utility=lr_u,
            iterations=evals,
            equalized=True,
        )


class _Probes:
    """The exact probes of one split and the sides of the root they settle.

    ``utilities`` maps each probed split ``a`` to ``(U_tx(a), U_lr(capacity
    − a))``.  The gap is non-decreasing in the split, so a probe whose gap
    is below ``-tol`` settles every split at or below it (the bisection
    goes right there), and one whose gap is above ``tol`` every split at
    or above it (left).
    """

    __slots__ = ("utilities", "_capacity", "_tx", "_lr", "_tol", "_right", "_left")

    def __init__(
        self, capacity: Mhz, tx_curve: UtilityCurve, lr_curve: UtilityCurve, tol: float
    ) -> None:
        self.utilities: dict[Mhz, tuple[float, float]] = {}
        self._capacity = capacity
        self._tx = tx_curve
        self._lr = lr_curve
        self._tol = tol
        self._right = -math.inf  # the largest split settled right
        self._left = math.inf  # the smallest split settled left

    def gap(self, a: Mhz) -> float:
        """``U_tx(a) − U_lr(capacity − a)``, probed once per split."""
        utilities = self.utilities.get(a)
        if utilities is None:
            utilities = self.utilities[a] = (
                self._tx.utility(a), self._lr.utility(self._capacity - a)
            )
        g = utilities[0] - utilities[1]
        if g < -self._tol:
            self._right = max(self._right, a)
        elif g > self._tol:
            self._left = min(self._left, a)
        return g

    def probe_unsettled(self, splits: list[Mhz]) -> None:
        """Probe each of ``splits``, in order, unless an earlier probe
        settled it."""
        for a in splits:
            if self._right < a < self._left:
                self.gap(a)

    def settled(self, a: Mhz) -> bool | None:
        """Whether the bisection goes right at ``a`` (``False``: left), as
        a probe settles it; ``None`` when no probe does."""
        if a <= self._right:
            return True
        if a >= self._left:
            return False
        return None


def _predicted_band(
    capacity: Mhz,
    tx_curve: UtilityCurve,
    lr_curve: UtilityCurve,
    at_lo: tuple[float, float],
    at_hi: tuple[float, float],
    tol: float,
) -> tuple[Mhz, Mhz] | None:
    """Approximate splits ``(t_lo, t_hi)`` where the gap crosses ``-tol``
    and ``tol``, or ``None`` when a curve cannot invert.

    Solves the demand view of the split (paper Figure 2): the common
    utility ``v`` with ``A_tx(v) + A_lr(v) = capacity``, where ``A`` is a
    curve's :meth:`~repro.core.demand.UtilityCurve.inverse`.  The exact
    utilities at the two boundary splits bracket ``v``: the root lies
    between the long-running utility at ``hi`` and the transactional one
    at ``lo`` from below, and between the transactional utility at
    ``hi`` and the long-running one at ``lo`` from above.  When demand
    at the top of that bracket still fits, the root sits where one curve
    stops rising -- the top is that curve's plateau -- and the split is
    the other curve's; otherwise safeguarded Newton steps descend from
    the top, bisecting the bracket when a step would leave it.  The
    band's half-width is ``tol / g'`` with ``g' = 1/A_tx' + 1/A_lr'``.
    """
    v_lo = max(at_hi[1], at_lo[0])
    v_hi = min(at_hi[0], at_lo[1])
    if not v_lo <= v_hi:  # also rejects NaN
        return None
    top = v = v_hi
    for _ in range(_PREDICT_STEPS):
        tx = tx_curve.inverse(v)
        if tx is None:  # before the long-running inverse's predictor pass
            return None
        lr = lr_curve.inverse(v)
        if lr is None:
            return None
        (a_tx, s_tx), (a_lr, s_lr) = tx, lr
        excess = a_tx + a_lr - capacity
        if v == top and excess <= 0:
            # A plateau: the flat curve takes what the other one leaves.
            if v == at_hi[0]:
                return _band(capacity - a_lr, math.inf, s_lr, tol)
            return _band(a_tx, s_tx, math.inf, tol)
        if excess > 0:
            v_hi = v
        else:
            v_lo = v
        slope = s_tx + s_lr
        step = -excess / slope if 0 < slope < math.inf else math.nan
        if abs(step) <= _PREDICT_RESOLUTION * tol:
            return _band(a_tx + s_tx * step, s_tx, s_lr, tol)
        v += step
        if not v_lo < v < v_hi:  # off the bracket, or NaN
            v = 0.5 * (v_lo + v_hi)
    return None


def _band(a: Mhz, s_tx: float, s_lr: float, tol: float) -> tuple[Mhz, Mhz]:
    """``a ∓ tol/g'`` for the gap slope ``g' = 1/s_tx + 1/s_lr``, where
    ``s`` is a curve's inverse slope (allocation per utility; inf where
    the curve is flat)."""
    slope = sum(1.0 / s if s > 0 else math.inf for s in (s_tx, s_lr))
    half = tol / slope if slope > 0 else math.inf
    return a - half, a + half


def _path_nodes(lo: Mhz, hi: Mhz, t_lo: Mhz, t_hi: Mhz, max_iterations: int) -> list[Mhz]:
    """The bisection path over ``[lo, hi]`` if every midpoint below
    ``t_lo`` went right and every one above ``t_hi`` left: its last
    right-going midpoint, its last left-going one and the first between
    the thresholds, in that order, each when there is one."""
    a_lo, a_hi = lo, hi
    last_right = last_left = None
    for _ in range(max_iterations):
        a = 0.5 * (a_lo + a_hi)
        if a < t_lo:
            a_lo = last_right = a
        elif a > t_hi:
            a_hi = last_left = a
        else:
            return [n for n in (last_right, last_left, a) if n is not None]
    return [n for n in (last_right, last_left) if n is not None]


class StealingArbiter:
    """The paper's iterative stealing loop.

    Starting from a split proportional to the two demands, each iteration
    moves ``quantum`` MHz from the more satisfied workload to the less
    satisfied one; when the imbalance changes sign the quantum halves.
    Terminates when the utilities are within tolerance, the quantum is
    exhausted, or the iteration cap is hit.
    """

    def __init__(
        self,
        initial_quantum_fraction: float = 0.1,
        utility_tolerance: float = 1e-3,
        max_iterations: int = 400,
    ) -> None:
        if not 0 < initial_quantum_fraction <= 0.5:
            raise ConfigurationError("initial_quantum_fraction must be in (0, 0.5]")
        if utility_tolerance <= 0:
            raise ConfigurationError("utility_tolerance must be positive")
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        self.initial_quantum_fraction = initial_quantum_fraction
        self.utility_tolerance = utility_tolerance
        self.max_iterations = max_iterations

    def split(
        self, capacity: Mhz, tx_curve: UtilityCurve, lr_curve: UtilityCurve
    ) -> ArbiterResult:
        if not capacity >= 0:  # also rejects NaN
            raise ConfigurationError(f"capacity must be non-negative, got {capacity}")
        saturated = _saturated_split(capacity, tx_curve, lr_curve)
        if saturated is not None:
            return saturated

        lo = max(0.0, capacity - lr_curve.max_utility_demand)
        hi = min(capacity, tx_curve.max_utility_demand)
        tx_demand = tx_curve.max_utility_demand
        lr_demand = lr_curve.max_utility_demand
        a = min(max(capacity * tx_demand / (tx_demand + lr_demand), lo), hi)

        quantum = capacity * self.initial_quantum_fraction
        min_quantum = capacity * 1e-9
        evals = 0
        last_sign = 0
        for _ in range(self.max_iterations):
            tx_u = tx_curve.utility(a)
            lr_u = lr_curve.utility(capacity - a)
            evals += 2
            diff = tx_u - lr_u
            if abs(diff) <= self.utility_tolerance:
                break
            sign = 1 if diff > 0 else -1
            if last_sign and sign != last_sign:
                quantum *= 0.5
                if quantum < min_quantum:
                    break
            last_sign = sign
            # The more satisfied workload donates a quantum to the other.
            a = min(max(a - sign * quantum, lo), hi)
            if a in (lo, hi) and quantum >= (hi - lo):
                quantum *= 0.5

        tx_u = tx_curve.utility(a)
        lr_u = lr_curve.utility(capacity - a)
        return ArbiterResult(
            tx_allocation=a,
            lr_allocation=capacity - a,
            tx_utility=tx_u,
            lr_utility=lr_u,
            iterations=evals,
            equalized=True,
        )


def make_arbiter(name: str, **kwargs: float) -> Arbiter:
    """Factory used by configuration: ``"bisection"`` or ``"stealing"``."""
    if name == "bisection":
        return BisectionArbiter(**kwargs)  # type: ignore[arg-type]
    if name == "stealing":
        return StealingArbiter(**kwargs)  # type: ignore[arg-type]
    raise ConfigurationError(f"unknown arbiter {name!r}")
