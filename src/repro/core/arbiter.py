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
  bisect on the split directly; used as the default (fast path).

The ABL-ARB ablation bench compares their costs and verifies fixed-point
agreement.

Cheap probes
------------
Each ``gap`` probe runs a hypothetical-utility equalization.  Nothing
here shortens the search trajectory -- changing the probe sequence would
change which tolerance-satisfying split is returned, and with it the
placement.  Instead the *curve* it hands in solves each probe cheaply:
:class:`~repro.core.demand.LongRunningCurve`'s equalizer predicts the
level by Newton steps from its previous probe's tangent (the cycle's
first probe starts from the least job ceiling) and resumes the bisection
at the prediction's node only once that node verifies (see
:class:`~repro.core.hypothetical.HypotheticalEqualizer`).  The identical
probe sequence gets cheaper and every utility stays bit-identical.
``ArbiterResult.iterations`` still counts *logical* curve evaluations,
so the ablation's cost metric is unaffected by what happens underneath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..errors import ConfigurationError
from ..types import Mhz
from .demand import UtilityCurve


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
        Curve evaluations spent (the ablation's cost metric).
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
        if capacity < 0:
            raise ConfigurationError("capacity must be non-negative")
        saturated = _saturated_split(capacity, tx_curve, lr_curve)
        if saturated is not None:
            return saturated

        lo = max(0.0, capacity - lr_curve.max_utility_demand)
        hi = min(capacity, tx_curve.max_utility_demand)
        evals = 0

        def gap(a: Mhz) -> float:
            nonlocal evals
            evals += 2
            return tx_curve.utility(a) - lr_curve.utility(capacity - a)

        # Boundary-dominant cases: one workload stays ahead even at its
        # least favourable split inside the clamped interval.
        if gap(hi) <= 0:
            a = hi
        elif gap(lo) >= 0:
            a = lo
        else:
            g_mid = 1.0
            a_lo, a_hi = lo, hi
            for _ in range(self.max_iterations):
                a = 0.5 * (a_lo + a_hi)
                g_mid = gap(a)
                if abs(g_mid) <= self.utility_tolerance:
                    break
                if g_mid > 0:
                    a_hi = a
                else:
                    a_lo = a
            else:
                a = 0.5 * (a_lo + a_hi)

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
        if capacity < 0:
            raise ConfigurationError("capacity must be non-negative")
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
