"""Predict-and-verify equalization == the cold bisection, bit for bit.

Every equalization predicts its level with a few Newton steps -- from
the previous solve's tangent, from a start level the caller offers
(:meth:`~repro.core.hypothetical.HypotheticalEqualizer.seed_level`, which
the record step passes), or from the least job ceiling -- and resumes
the bisection at the prediction's node only once that node verifies.
These properties pin the contract directly against the frozen copy of
the cold bisection (``reference_equalizer.py``): any start level and any
predicted level give the reference's level, rates and mean, bit for bit.
"""

import numpy as np

from repro.core.hypothetical import HypotheticalEqualizer, mean_hypothetical_utility
from repro.perf.jobmodel import JobPopulation

from .reference_equalizer import assert_bit_equal, reference_equalize, reference_node


class _FixedPrediction(HypotheticalEqualizer):
    """An equalizer whose level predictor returns a chosen bracket."""

    def __init__(self, population, low, high):
        super().__init__(population)
        self.prediction = (low, high)

    def _predict(self, allocation, bisect_iters):
        return self.prediction


class TestSeededEqualizerProperty:
    """A seeded equalization equals the cold bisection for *any* seed level
    and any predicted level."""

    def _random_population(self, rng):
        # Up to 300 jobs: past numpy's 128-element pairwise-summation block.
        n = int(rng.integers(1, 301))
        t = float(rng.uniform(0.0, 60000.0))
        remaining = rng.uniform(0.0, 1e7, n)
        remaining[rng.random(n) < 0.15] = 0.0
        caps = rng.uniform(200.0, 4000.0, n)
        goal_lengths = rng.uniform(300.0, 80000.0, n)
        submit = rng.uniform(0.0, t, n)
        goals_abs = submit + goal_lengths * rng.uniform(0.3, 2.5, n)
        return JobPopulation(
            time=t,
            job_ids=tuple(f"j{i}" for i in range(n)),
            remaining=remaining,
            caps=caps,
            goals_abs=goals_abs,
            goal_lengths=goal_lengths,
            importance=rng.uniform(0.5, 2.0, n),
        )

    def _hostile_levels(self, rng, population):
        """Levels no result may depend on: NaN, infinities, levels outside
        the bracket, the bracket ends, and the exact endpoints of the cold
        bisection's nodes around an equalized level."""
        u_lo0, u_hi0 = HypotheticalEqualizer(population).bracket
        cold = reference_equalize(population, 0.5 * population.total_cap).utility_level
        levels = [np.nan, np.inf, -np.inf, u_lo0 - 5.0, u_hi0 + 5.0, u_lo0, u_hi0]
        for depth in (1, 7, 29, 30, 31, 45, 48, 60):
            levels.extend(reference_node(population, cold, depth))
        levels.append(float(rng.uniform(-10.0, 3.0)))
        return levels

    def test_seeded_bisection_bit_identical(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            population = self._random_population(rng)
            cap = population.total_cap
            hostile = self._hostile_levels(rng, population)
            for _ in range(4):
                allocation = float(
                    rng.choice([0.0, 1e-9 * cap, rng.uniform(0.0, 1.2 * cap)])
                )
                iters = int(rng.choice([1, 7, 30, 48, 100]))
                want = reference_equalize(population, allocation, iters)
                low, high = (hostile[int(i)] for i in rng.integers(len(hostile), size=2))
                # A hostile warm level only starts the predictor ...
                seeded = HypotheticalEqualizer(population)
                seeded.seed_level(low)
                assert_bit_equal(seeded.equalize(allocation, bisect_iters=iters), want)
                # ... also as the start of the recording step's solve ...
                mean = mean_hypothetical_utility(population, allocation, start=low)
                exact = reference_equalize(population, allocation)
                assert mean.hex() == exact.mean_utility.hex()
                # ... while a hostile prediction (a level, or a bracket in
                # any order) reaches verification itself.
                for prediction in ((low, low), (low, high)):
                    predicted = _FixedPrediction(population, *prediction)
                    assert_bit_equal(
                        predicted.equalize(allocation, bisect_iters=iters), want
                    )

    def test_prediction_verifies_within_eight_passes(self):
        rng = np.random.default_rng(9)
        population = self._random_population(rng)
        allocation = population.total_cap * 0.5
        level = reference_equalize(population, allocation).utility_level
        seeded = HypotheticalEqualizer(population)
        seeded.seed_level(level)
        result = seeded.equalize(allocation, bisect_iters=30)
        assert_bit_equal(result, reference_equalize(population, allocation, 30))
        assert seeded.stats.seed_hits == 1
        # The floor check, the predictor's Newton steps and the two
        # endpoint checks of the verified depth-30 node; the cold
        # bisection spends about 30.
        assert seeded.stats.evals <= 8
