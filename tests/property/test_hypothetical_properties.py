"""Property-based tests for hypothetical-utility equalization.

The invariants here are what make the controller sound: the equalization
never over-commits CPU, never exceeds a job's speed cap, is monotone in
the allocation, and genuinely equalizes the utilities of uncapped jobs.
Its results are also bit-equal to the frozen cold bisection
(``reference_equalizer``), whatever the level predictor computes.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import HypotheticalEqualizer, equalize_hypothetical_utility
from repro.perf.jobmodel import JobPopulation

from .reference_equalizer import (
    assert_bit_equal,
    reference_consumed,
    reference_equalize,
    reference_node,
)


def _column(n, low, high):
    return hnp.arrays(
        np.float64, n,
        elements=st.floats(min_value=low, max_value=high, allow_nan=False),
    )


@st.composite
def populations(draw):
    # Up to 300 jobs: past numpy's 128-element pairwise-summation block.
    n = draw(st.integers(min_value=1, max_value=300))
    remaining = draw(_column(n, 1e3, 1e8))
    # Jobs with no work left consume nothing at any level.
    remaining[draw(hnp.arrays(np.bool_, n))] = 0.0
    caps = draw(_column(n, 100.0, 4000.0))
    goal_lengths = draw(_column(n, 100.0, 1e5))
    t = draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False))
    offsets = draw(_column(n, -5e4, 1e5))
    return JobPopulation(
        time=t,
        job_ids=tuple(f"j{i}" for i in range(n)),
        remaining=remaining,
        caps=caps,
        goals_abs=t + offsets,
        goal_lengths=goal_lengths,
        importance=draw(_column(n, 0.0, 2.0)),
    )


@given(populations(), st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=150, deadline=None)
def test_never_overcommits_allocation(pop, allocation):
    result = equalize_hypothetical_utility(pop, allocation)
    assert result.consumed <= allocation * (1 + 1e-6) + 1e-9


@given(populations(), st.floats(min_value=0.0, max_value=1e6))
@settings(max_examples=150, deadline=None)
def test_rates_respect_speed_caps(pop, allocation):
    result = equalize_hypothetical_utility(pop, allocation)
    assert np.all(result.rates <= pop.caps * (1 + 1e-9))
    assert np.all(result.rates >= 0.0)


@given(populations(), st.floats(min_value=0.0, max_value=5e5),
       st.floats(min_value=1.01, max_value=4.0))
@settings(max_examples=100, deadline=None)
def test_mean_utility_monotone_in_allocation(pop, allocation, factor):
    lo = equalize_hypothetical_utility(pop, allocation)
    hi = equalize_hypothetical_utility(pop, allocation * factor)
    assert hi.mean_utility >= lo.mean_utility - 1e-6


@given(populations(), st.floats(min_value=1e3, max_value=1e6))
@settings(max_examples=150, deadline=None)
def test_uncapped_jobs_share_one_utility_level(pop, allocation):
    result = equalize_hypothetical_utility(pop, allocation)
    u_max = pop.max_achievable_utility()
    uncapped = (result.rates < pop.caps * (1 - 1e-6)) & (pop.remaining > 0)
    if np.count_nonzero(uncapped) >= 2:
        utilities = result.utilities[uncapped]
        assert np.max(utilities) - np.min(utilities) < 1e-3
    # Capped jobs sit at their ceiling, never above the level.
    capped = ~uncapped & (pop.remaining > 0)
    assert np.all(result.utilities[capped] <= u_max[capped] + 1e-9)


@given(populations())
@settings(max_examples=100, deadline=None)
def test_surplus_allocation_reaches_every_ceiling(pop):
    result = equalize_hypothetical_utility(pop, pop.total_cap * 1.5)
    u_max = pop.max_achievable_utility()
    active = pop.remaining > 0
    assert np.allclose(result.utilities[active], u_max[active])
    assert np.allclose(result.rates[active], pop.caps[active])


#: Bisection depths: one iteration, a few, the arbiter's 30, one past the
#: verification depth of most levels, and float-exact.
BISECT_ITERS = (1, 7, 30, 48, 100)


@given(
    populations(),
    st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.3),
            # Starved, barely equalizable and exactly-capped allocations.
            st.sampled_from([0.0, 1e-9, 1e-5, 1.0]),
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from(BISECT_ITERS),
    st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, -1e6, 1e6]),
        st.floats(min_value=-10.0, max_value=3.0),
        st.integers(min_value=0, max_value=60),
    ),
)
@settings(max_examples=150, deadline=None)
def test_bit_equal_to_frozen_cold_bisection(pop, fractions, iters, start):
    """Every result equals the cold bisection's, for any predictor start.

    ``start`` seeds the predictor's first solve: NaN, infinities, levels
    far outside the bracket, a random level, or (an integer depth) the
    exact left endpoint of the node holding the first cold level.  Later
    solves start from the previous solve's tangent.
    """
    equalizer = HypotheticalEqualizer(pop)
    if isinstance(start, int):
        cold = reference_equalize(pop, fractions[0] * pop.total_cap, 100)
        start = reference_node(pop, cold.utility_level, start)[0]
    equalizer.seed_level(start)
    for fraction in fractions:
        allocation = fraction * pop.total_cap
        want = reference_equalize(pop, allocation, iters)
        assert_bit_equal(equalizer.equalize(allocation, bisect_iters=iters), want)
        level = equalizer.metric_at(allocation, "level", bisect_iters=iters)
        mean = equalizer.metric_at(allocation, "mean", bisect_iters=iters)
        assert level.hex() == want.utility_level.hex()
        assert mean.hex() == want.mean_utility.hex()
        consumed = reference_consumed(pop, want.utility_level)
        assert equalizer.consumed(want.utility_level).hex() == consumed.hex()
