"""Property tests for the replication aggregation math.

The ``repro.result-replicated/v1`` statistics rest on
:class:`~repro.analysis.stats.MetricAggregate`; these properties pin the
invariants the ISSUE names: CI bounds contain the mean, n=1 degenerates
to std=0 / a point CI, and aggregation is invariant under any
permutation of the seed order (both at the single-metric level and
through :class:`~repro.experiments.replication.ReplicatedResult`).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import MetricAggregate, aggregate_metrics
from repro.experiments.replication import ReplicatedResult, SeedRun
from repro.experiments.runner import RunInfo

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=24)


@settings(max_examples=200, deadline=None)
@given(samples)
def test_ci_bounds_contain_mean_and_minmax_bracket(values):
    agg = MetricAggregate.of(values)
    assert agg.ci95_lo <= agg.mean <= agg.ci95_hi
    assert agg.min <= agg.mean <= agg.max
    assert agg.std >= 0.0
    assert agg.n == len(values)


@settings(max_examples=200, deadline=None)
@given(finite_floats)
def test_single_sample_degenerates(value):
    agg = MetricAggregate.of([value])
    assert agg.n == 1
    assert agg.std == 0.0
    assert agg.ci95_lo == agg.mean == agg.ci95_hi == value
    assert agg.min == agg.max == value


@settings(max_examples=200, deadline=None)
@given(samples, st.randoms(use_true_random=False))
def test_permutation_invariance_bitwise(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert MetricAggregate.of(shuffled) == MetricAggregate.of(values)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(finite_floats, finite_floats), min_size=2, max_size=10
    ),
    st.randoms(use_true_random=False),
)
def test_replicated_result_invariant_in_seed_order(rows, rnd):
    """Shuffling (seed, summary) pairs leaves every aggregate identical."""
    seeds = list(range(len(rows)))
    per_seed = [SeedRun(seed, {"m1": a, "m2": b}) for seed, (a, b) in zip(seeds, rows)]
    info = RunInfo(name="prop", base_seed=0, horizon=1.0, num_nodes=1)
    base = ReplicatedResult(
        scenario=info,
        policy="utility",
        seeds=tuple(seeds),
        per_seed=tuple(per_seed),
    )
    order = list(range(len(rows)))
    rnd.shuffle(order)
    shuffled = ReplicatedResult(
        scenario=info,
        policy="utility",
        seeds=tuple(seeds[i] for i in order),
        per_seed=tuple(per_seed[i] for i in order),
    )
    assert shuffled.aggregates == base.aggregates


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from("abcd"), finite_floats), min_size=1, max_size=8))
def test_aggregate_covers_key_union(summaries):
    out = aggregate_metrics(summaries)
    union = {key for summary in summaries for key in summary}
    assert set(out) == union
    for key, agg in out.items():
        assert agg.n == sum(1 for s in summaries if key in s)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(finite_floats, st.just(math.nan)), min_size=1, max_size=16))
def test_nan_samples_never_poison_statistics(values):
    agg = MetricAggregate.of(values)
    finite = [v for v in values if math.isfinite(v)]
    assert agg.n == len(finite)
    if finite:
        assert math.isfinite(agg.mean)
    else:
        assert math.isnan(agg.mean)
