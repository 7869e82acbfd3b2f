"""Unit tests for hypothetical-utility equalization (paper Section 2)."""

import math

import numpy as np
import pytest

from repro.core import (
    HypotheticalEqualizer,
    LongRunningCurve,
    equalize_hypothetical_utility,
    longrunning_max_utility_demand,
    mean_hypothetical_utility,
)
from repro.errors import ModelError

from ..conftest import make_population


class TestSurplusRegime:
    def test_every_job_at_cap(self):
        pop = make_population(0.0, [3_000_000.0] * 3)
        result = equalize_hypothetical_utility(pop, 9_000.0)
        assert np.allclose(result.rates, 3000.0)
        # R/c = 1000 s against a 4000 s goal -> utility 0.75 each.
        assert np.allclose(result.utilities, 0.75)
        assert result.mean_utility == pytest.approx(0.75)

    def test_extra_allocation_changes_nothing(self):
        pop = make_population(0.0, [3_000_000.0] * 3)
        a = equalize_hypothetical_utility(pop, 9_000.0)
        for allocation in (90_000.0, math.inf):
            b = equalize_hypothetical_utility(pop, allocation)
            assert np.allclose(a.rates, b.rates)
            assert a.mean_utility == b.mean_utility


class TestEqualizedRegime:
    def test_identical_jobs_share_equally(self):
        pop = make_population(0.0, [3_000_000.0] * 3)
        result = equalize_hypothetical_utility(pop, 4_500.0)
        assert np.allclose(result.rates, 1500.0)
        # completion at 2000 s against 4000 s goal -> utility 0.5.
        assert result.utility_level == pytest.approx(0.5, abs=1e-6)
        assert result.consumed == pytest.approx(4_500.0)

    def test_utilities_equal_across_heterogeneous_jobs(self):
        # Different remaining work and goals; no job near its cap.
        pop = make_population(
            0.0,
            remaining=[1_000_000.0, 2_500_000.0],
            goal_lengths=[3000.0, 5000.0],
            goals_abs=[3000.0, 5000.0],
        )
        result = equalize_hypothetical_utility(pop, 2_000.0)
        assert result.utilities[0] == pytest.approx(result.utilities[1], abs=1e-6)

    def test_consumption_never_exceeds_allocation(self):
        pop = make_population(0.0, [3_000_000.0, 1_000_000.0, 500_000.0])
        for allocation in (100.0, 1_000.0, 4_000.0, 7_000.0):
            result = equalize_hypothetical_utility(pop, allocation)
            assert result.consumed <= allocation * (1 + 1e-9)

    def test_capped_job_gets_cap_others_equalize(self):
        # Job 0 is nearly hopeless (tiny slack): it saturates at its cap;
        # the others share the rest at a common level.
        pop = make_population(
            0.0,
            remaining=[2_900_000.0, 1_000_000.0, 1_000_000.0],
            goals_abs=[1000.0, 4000.0, 4000.0],
            goal_lengths=[1000.0, 4000.0, 4000.0],
        )
        result = equalize_hypothetical_utility(pop, 5_000.0)
        assert result.rates[0] == pytest.approx(3000.0)
        assert result.utilities[1] == pytest.approx(result.utilities[2])
        assert result.utilities[0] < result.utilities[1]

    def test_mean_weighted_by_importance(self):
        pop = make_population(
            0.0,
            remaining=[2_900_000.0, 1_000_000.0],
            goals_abs=[1000.0, 4000.0],
            goal_lengths=[1000.0, 4000.0],
            importance=[0.0, 1.0],  # ignore the hopeless job
        )
        result = equalize_hypothetical_utility(pop, 4_000.0)
        assert result.mean_utility == pytest.approx(result.utilities[1])


class TestStarvedRegime:
    def test_tiny_allocation_stays_finite_and_scaled(self):
        pop = make_population(0.0, [3_000_000.0] * 4)
        result = equalize_hypothetical_utility(pop, 1.0)
        assert np.isfinite(result.utility_level)
        assert result.consumed == pytest.approx(1.0, rel=1e-6)

    def test_zero_allocation(self):
        pop = make_population(0.0, [3_000_000.0])
        result = equalize_hypothetical_utility(pop, 0.0)
        assert result.consumed == 0.0
        assert np.isfinite(result.mean_utility)


class TestEdgeCases:
    def test_empty_population_fully_satisfied(self):
        pop = make_population(0.0, [])
        result = equalize_hypothetical_utility(pop, 1_000.0)
        assert result.mean_utility == 1.0
        assert result.consumed == 0.0

    def test_negative_allocation_rejected(self):
        pop = make_population(0.0, [1.0])
        with pytest.raises(ModelError):
            equalize_hypothetical_utility(pop, -1.0)

    def test_nan_allocation_rejected(self):
        pop = make_population(0.0, [3_000_000.0, 2_000_000.0, 1_000_000.0, 4e6, 5e5])
        with pytest.raises(ModelError, match="non-negative"):
            equalize_hypothetical_utility(pop, math.nan)
        with pytest.raises(ModelError, match="non-negative"):
            HypotheticalEqualizer(pop).metric_at(math.nan, "level")
        with pytest.raises(ModelError, match="non-negative"):
            LongRunningCurve(pop).utility(math.nan)


class TestDerivedQuantities:
    def test_max_utility_demand_is_sum_of_caps(self):
        pop = make_population(0.0, [1e6, 1e6], caps=[3000.0, 1500.0])
        assert longrunning_max_utility_demand(pop) == 4500.0

    def test_max_utility_demand_skips_finished_work(self):
        pop = make_population(0.0, [1e6, 0.0])
        assert longrunning_max_utility_demand(pop) == 3000.0

    def test_shortcuts_agree_with_full_result(self):
        pop = make_population(0.0, [3_000_000.0] * 2)
        full = equalize_hypothetical_utility(pop, 3_000.0)
        assert mean_hypothetical_utility(pop, 3_000.0) == full.mean_utility

    def test_monotone_in_allocation(self):
        pop = make_population(0.0, [3e6, 2e6, 1e6])
        levels = [
            equalize_hypothetical_utility(pop, a).utility_level
            for a in (500.0, 2_000.0, 5_000.0, 8_000.0)
        ]
        assert levels == sorted(levels)
        means = [mean_hypothetical_utility(pop, a) for a in (500.0, 2_000.0, 5_000.0)]
        assert means == sorted(means)
