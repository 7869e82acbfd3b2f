"""PERF -- hypothetical-utility equalization cost versus population size.

The equalization runs every control cycle over all incomplete jobs; the
vectorized bisection must stay far below the control-cycle budget even
for thousands of jobs.  The arbitrated-cycle bench times what one
control cycle spends on it: the arbiter's split over a fresh
long-running curve plus the float-exact equalization of its result, and
reports the vectorized passes over the population each solve costs.
"""

import numpy as np
import pytest

from repro.core import (
    BisectionArbiter,
    LongRunningCurve,
    TransactionalCurve,
    equalize_hypothetical_utility,
)
from repro.perf import ClosedTransactionalModel
from repro.perf.jobmodel import JobPopulation
from repro.utility import TransactionalUtility

SIZES = (100, 1_000, 10_000)

#: Median live populations of perfbench's chaos-soak, paper and
#: scale-1000 workloads.
CYCLE_SIZES = (22, 82, 2_000)


def build_population(n: int) -> JobPopulation:
    rng = np.random.default_rng(n)
    goal_lengths = np.full(n, 60_000.0)
    return JobPopulation(
        time=30_000.0,
        job_ids=tuple(f"j{i}" for i in range(n)),
        remaining=rng.uniform(1e6, 45e6, n),
        caps=np.full(n, 3000.0),
        goals_abs=30_000.0 + rng.uniform(-10_000.0, 50_000.0, n),
        goal_lengths=goal_lengths,
        importance=np.ones(n),
    )


@pytest.mark.parametrize("size", SIZES)
def test_equalization_scaling(benchmark, size):
    population = build_population(size)
    allocation = 0.4 * population.total_cap

    result = benchmark(lambda: equalize_hypothetical_utility(population, allocation))

    print(
        f"\n[{size} jobs] level={result.utility_level:.3f} "
        f"mean={result.mean_utility:.3f} consumed={result.consumed:.0f}"
        f"/{allocation:.0f} MHz"
    )
    assert result.consumed <= allocation * (1 + 1e-6)


@pytest.mark.parametrize("size", CYCLE_SIZES)
def test_arbitrated_cycle(benchmark, size):
    population = build_population(size)
    tx_curve = TransactionalCurve(
        ClosedTransactionalModel(210.0, 0.2, 300.0, 3000.0), TransactionalUtility(0.4)
    )
    # Both workloads CPU-constrained: the arbiter has to equalize.
    capacity = 0.6 * (tx_curve.max_utility_demand + population.total_cap)
    arbiter = BisectionArbiter()

    def cycle():
        lr_curve = LongRunningCurve(population)
        split = arbiter.split(capacity, tx_curve, lr_curve)
        return split, lr_curve, lr_curve.equalize(split.lr_allocation)

    split, lr_curve, result = benchmark(cycle)
    stats = lr_curve.equalizer.stats
    # One curve evaluation per gap probe, plus the float-exact equalize.
    solves = split.iterations // 2 + 1
    print(
        f"\n[{size} jobs] lr={split.lr_allocation:.0f} MHz level="
        f"{result.utility_level:.4f} solves={solves} passes={stats.evals} "
        f"({stats.evals / solves:.1f}/solve) verified={stats.seed_hits} "
        f"fell back={stats.seed_misses}"
    )
    assert split.utility_gap < 0.01
    assert result.consumed <= split.lr_allocation * (1 + 1e-9)
