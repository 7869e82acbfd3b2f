"""Frozen copy of the plain bisection arbiter.

This module preserves ``BisectionArbiter.split`` as it stood before the
split prediction: both boundary probes, then one exact probe per
bisection midpoint until a gap lies within the tolerance.  The property
tests assert that the production
:class:`~repro.core.arbiter.BisectionArbiter` returns the same
:class:`~repro.core.arbiter.ArbiterResult`, field for field, whatever
its prediction computes.  Do NOT edit the arithmetic here when changing
the production arbiter -- identical output is the contract under test.
"""

from __future__ import annotations

from repro.core.arbiter import ArbiterResult


def reference_split(
    capacity: float,
    tx_curve,
    lr_curve,
    utility_tolerance: float = 1e-4,
    max_iterations: int = 80,
) -> ArbiterResult:
    """The plain bisection split (the capacity check left to the caller)."""
    tx_demand = tx_curve.max_utility_demand
    lr_demand = lr_curve.max_utility_demand
    if tx_demand + lr_demand <= capacity:
        return ArbiterResult(
            tx_allocation=tx_demand,
            lr_allocation=lr_demand,
            tx_utility=tx_curve.utility(tx_demand),
            lr_utility=lr_curve.utility(lr_demand),
            iterations=2,
            equalized=False,
        )

    lo = max(0.0, capacity - lr_curve.max_utility_demand)
    hi = min(capacity, tx_curve.max_utility_demand)
    evals = 0

    def gap(a: float) -> float:
        nonlocal evals
        evals += 2
        return tx_curve.utility(a) - lr_curve.utility(capacity - a)

    if gap(hi) <= 0:
        a = hi
    elif gap(lo) >= 0:
        a = lo
    else:
        g_mid = 1.0
        a_lo, a_hi = lo, hi
        for _ in range(max_iterations):
            a = 0.5 * (a_lo + a_hi)
            g_mid = gap(a)
            if abs(g_mid) <= utility_tolerance:
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
