"""Unit tests for workload utility curves."""

import math

import pytest

from repro.core import (
    LongRunningCurve,
    TransactionalAggregateCurve,
    TransactionalCurve,
    effective_capacity,
)
from repro.errors import ConfigurationError, ModelError
from repro.perf import ClosedTransactionalModel
from repro.types import WorkloadKind
from repro.utility import TransactionalUtility

from ..conftest import make_population


def tx_curve(clients=210.0, goal=0.4) -> TransactionalCurve:
    model = ClosedTransactionalModel(clients, 0.2, 300.0, 3000.0)
    return TransactionalCurve(model, TransactionalUtility(goal))


class TestTransactionalCurve:
    def test_kind_and_demand(self):
        curve = tx_curve()
        assert curve.kind is WorkloadKind.TRANSACTIONAL
        assert curve.max_utility_demand == pytest.approx(
            curve.model.max_utility_demand(0.05)
        )

    def test_monotone_nondecreasing(self):
        curve = tx_curve()
        utilities = [curve.utility(a) for a in (50_000.0, 100_000.0, 200_000.0, 400_000.0)]
        assert utilities == sorted(utilities)

    def test_plateau_beyond_demand(self):
        curve = tx_curve()
        at_demand = curve.utility(curve.max_utility_demand)
        assert curve.utility(curve.max_utility_demand * 2) == pytest.approx(
            at_demand, abs=0.05
        )

    def test_allocation_for_utility_capped_at_demand(self):
        curve = tx_curve()
        assert curve.allocation_for_utility(10.0) == curve.max_utility_demand

    @pytest.mark.parametrize("allocation", [math.nan, -1.0])
    def test_invalid_allocation_rejected(self, allocation):
        with pytest.raises(ModelError):
            tx_curve().utility(allocation)


class TestAggregateCurve:
    def test_single_member_passthrough(self):
        member = tx_curve()
        agg = TransactionalAggregateCurve([member])
        assert agg.utility(100_000.0) == pytest.approx(member.utility(100_000.0))
        assert agg.max_utility_demand == member.max_utility_demand

    def test_split_conserves_allocation(self):
        members = [tx_curve(210.0), tx_curve(100.0, goal=0.6)]
        agg = TransactionalAggregateCurve(members)
        shares = agg.split(150_000.0)
        assert sum(shares) == pytest.approx(150_000.0, rel=1e-3)

    def test_split_equalizes_utilities(self):
        members = [tx_curve(210.0), tx_curve(100.0, goal=0.6)]
        agg = TransactionalAggregateCurve(members)
        shares = agg.split(150_000.0)
        u0 = members[0].utility(shares[0])
        u1 = members[1].utility(shares[1])
        assert u0 == pytest.approx(u1, abs=0.02)

    def test_saturated_split_gives_demands(self):
        members = [tx_curve(50.0), tx_curve(30.0)]
        agg = TransactionalAggregateCurve(members)
        shares = agg.split(10 * agg.max_utility_demand)
        assert shares == [m.max_utility_demand for m in members]

    @pytest.mark.parametrize("allocation", [math.nan, -1.0])
    @pytest.mark.parametrize("apps", [1, 2])
    def test_invalid_allocation_rejected(self, apps, allocation):
        agg = TransactionalAggregateCurve([tx_curve(210.0), tx_curve(100.0, goal=0.6)][:apps])
        with pytest.raises(ModelError):
            agg.split(allocation)
        with pytest.raises(ModelError):
            agg.utility(allocation)

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ConfigurationError):
            TransactionalAggregateCurve([])


class TestLongRunningCurve:
    def test_demand_is_population_cap(self):
        pop = make_population(0.0, [1e6] * 3)
        curve = LongRunningCurve(pop)
        assert curve.max_utility_demand == 9000.0
        assert curve.kind is WorkloadKind.LONG_RUNNING

    def test_mean_and_level_metrics_differ_when_jobs_capped(self):
        pop = make_population(
            0.0,
            remaining=[2_900_000.0, 1_000_000.0],
            goals_abs=[1000.0, 4000.0],
            goal_lengths=[1000.0, 4000.0],
        )
        mean_curve = LongRunningCurve(pop, "mean")
        level_curve = LongRunningCurve(pop, "level")
        a = 4000.0
        assert mean_curve.utility(a) < level_curve.utility(a)

    def test_empty_population_is_satisfied(self):
        pop = make_population(0.0, [])
        curve = LongRunningCurve(pop)
        assert curve.utility(0.0) == 1.0
        assert curve.max_utility_demand == 0.0

    def test_unknown_metric_rejected(self):
        pop = make_population(0.0, [1e6])
        with pytest.raises(ConfigurationError):
            LongRunningCurve(pop, "median")  # type: ignore[arg-type]

    def test_max_utility_plateau(self):
        pop = make_population(0.0, [3_000_000.0] * 2)
        curve = LongRunningCurve(pop)
        assert curve.max_utility() == pytest.approx(0.75)


class TestEffectiveCapacity:
    def test_discount(self):
        assert effective_capacity(1000.0, 0.9) == 900.0

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ConfigurationError):
            effective_capacity(1000.0, 0.0)
        with pytest.raises(ConfigurationError):
            effective_capacity(1000.0, 1.5)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            effective_capacity(-1.0)

    def test_nan_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative, got nan"):
            effective_capacity(math.nan)
