"""Frozen copy of the cold hypothetical-utility bisection.

This module preserves the equalization as it stood before the level
predictor: the unseeded bisection from the fixed ``(u_lo0, u_hi0)``
bracket, one plain consumed-curve evaluation per midpoint, and the same
result assembly.  The property tests assert that the production
:class:`~repro.core.hypothetical.HypotheticalEqualizer` reproduces its
``utility_level``, ``rates`` and ``mean_utility`` bit for bit, whatever
its predictor computes.  Do NOT edit the arithmetic here when changing
the production equalizer -- identical output is the contract under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf.jobmodel import JobPopulation

UTILITY_SEARCH_SPAN = 8.0
_REL_EPS = 1e-9

SURPLUS, STARVED, EQUALIZED = 0, 1, 2


@dataclass(frozen=True)
class ReferenceAllocation:
    regime: int
    utility_level: float
    rates: np.ndarray
    mean_utility: float


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> float:
    total_weight = float(weights.sum())
    if total_weight <= 0:
        return float(values.mean())
    return float(np.dot(values, weights) / total_weight)


def _required_rates(population: JobPopulation, u: float) -> np.ndarray:
    slack = population.goals_abs - u * population.goal_lengths - population.time
    with np.errstate(divide="ignore"):
        rates = np.where(
            slack > 0, population.remaining / np.maximum(slack, 1e-300), np.inf
        )
    return np.where(population.remaining <= 0, 0.0, rates)


def reference_consumed(population: JobPopulation, u: float) -> float:
    return float(np.minimum(_required_rates(population, u), population.caps).sum())


def _u_max(population: JobPopulation) -> np.ndarray:
    best_completion = population.time + population.remaining / population.caps
    return (population.goals_abs - best_completion) / population.goal_lengths


def reference_solve_level(
    population: JobPopulation, allocation: float, bisect_iters: int
) -> tuple[int, float]:
    """The cold bisection: ``(regime, level)``."""
    u_max = _u_max(population)
    if allocation >= float(population.caps.sum()) * (1 - _REL_EPS):
        return SURPLUS, float(u_max.max())
    u_lo = float(u_max.min()) - UTILITY_SEARCH_SPAN
    u_hi = float(u_max.max())
    if reference_consumed(population, u_lo) > allocation:
        return STARVED, u_lo
    for _ in range(bisect_iters):
        u_mid = 0.5 * (u_lo + u_hi)
        if u_mid == u_lo:
            break
        if reference_consumed(population, u_mid) > allocation:
            if u_mid == u_hi:
                break
            u_hi = u_mid
        else:
            u_lo = u_mid
    return EQUALIZED, u_lo


def reference_node(
    population: JobPopulation, level: float, depth: int
) -> tuple[float, float]:
    """Endpoints of the depth-``depth`` node of the cold bisection tree
    that holds ``level`` (stopping early at float resolution)."""
    u_max = _u_max(population)
    lo, hi = float(u_max.min()) - UTILITY_SEARCH_SPAN, float(u_max.max())
    for _ in range(depth):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if level < mid:
            hi = mid
        else:
            lo = mid
    return lo, hi


def reference_equalize(
    population: JobPopulation, allocation: float, bisect_iters: int = 100
) -> ReferenceAllocation:
    """The full equalization result of a non-empty population."""
    caps = population.caps
    weights = population.importance
    u_max = _u_max(population)
    n = len(population)
    regime, level = reference_solve_level(population, allocation, bisect_iters)
    if regime == SURPLUS:
        rates = np.where(population.remaining > 0, caps, 0.0)
        return ReferenceAllocation(
            regime, float(u_max.max()), rates, _weighted_mean(u_max, weights)
        )
    rates = np.minimum(_required_rates(population, level), caps)
    if regime == STARVED:
        total = float(rates.sum())
        rates = rates * (allocation / total if total > 0 else 0.0)
    utilities = np.minimum(np.full(n, level), u_max)
    return ReferenceAllocation(regime, level, rates, _weighted_mean(utilities, weights))


def assert_bit_equal(result, reference: ReferenceAllocation) -> None:
    """``result`` (a production allocation) equals ``reference`` bit for bit."""
    assert result.utility_level.hex() == reference.utility_level.hex()
    assert result.rates.tobytes() == reference.rates.tobytes()
    assert result.mean_utility.hex() == reference.mean_utility.hex()
