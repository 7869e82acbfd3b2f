"""Predict-and-verify split == the plain bisection, field for field.

:class:`~repro.core.arbiter.BisectionArbiter` predicts the bisection's
path from one approximate solve, probes three of its nodes exactly and
replays the bisection, probing only the midpoints no probe settled.
These properties pin it against the frozen plain bisection
(``reference_arbiter.py``): random single apps and two-app aggregates
under both long-running metrics and any ``rt_tolerance``, every split of
short runs of three registered scenarios (one of them also with an
``rt_tolerance`` below the default, where an aggregate's utility is not
monotone and the split must not trust a prediction), and the same splits
under a deliberately wrong prediction.  Each side gets its own fresh
curves.  The probe count on ``paper`` is pinned too, as a count: the
exact long-running evaluations per equalized split.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment
from repro.core import (
    BisectionArbiter,
    LongRunningCurve,
    TransactionalAggregateCurve,
    TransactionalCurve,
)
from repro.core import arbiter as arbiter_module
from repro.core.hypothetical import HypotheticalEqualizer
from repro.experiments.runner import run_scenario
from repro.netmodel.model import NetworkAwareModel
from repro.perf import ClosedTransactionalModel, OpenTransactionalModel
from repro.perf.jobmodel import JobPopulation
from repro.utility import TransactionalUtility
from repro.utility.shapes import SigmoidUtility

from .reference_arbiter import reference_split

#: The captured runs, by label: ``(scenario, spec overrides)``.
CAPTURED = {
    "paper": ("paper", {}),
    "chaos-soak": ("chaos-soak", {}),
    "multi-app-differentiation": ("multi-app-differentiation", {}),
    "multi-app-rt-tolerance-0.01": (
        "multi-app-differentiation", {"controller.rt_tolerance": 0.01}
    ),
}


def split_fields(result) -> tuple:
    """Every field of an :class:`ArbiterResult`, floats by ``float.hex``."""
    return (
        result.tx_allocation.hex(),
        result.lr_allocation.hex(),
        float(result.tx_utility).hex(),
        float(result.lr_utility).hex(),
        result.iterations,
        result.equalized,
    )


def mismatches(cases, arbiter=None) -> list:
    """The cases ``(capacity, tx_curve, lr_curve)`` where ``arbiter``
    (default: a fresh :class:`BisectionArbiter`) and the reference split
    differ; each side splits its own deep copy of the curves."""
    arbiter = arbiter or BisectionArbiter()
    differ = []
    for capacity, tx, lr in cases:
        ours = arbiter.split(capacity, copy.deepcopy(tx), copy.deepcopy(lr))
        reference = reference_split(
            capacity,
            copy.deepcopy(tx),
            copy.deepcopy(lr),
            arbiter.utility_tolerance,
            arbiter.max_iterations,
        )
        if split_fields(ours) != split_fields(reference):
            differ.append((capacity, ours, reference))
    return differ


def capture_splits(name: str, overrides=None) -> list:
    """Every arbiter split of a full run of scenario ``name`` (with spec
    ``overrides``), as ``(capacity, tx_curve, lr_curve)`` with the curves
    copied before the split probes them."""
    cases = []
    original = BisectionArbiter.split

    def capturing(self, capacity, tx_curve, lr_curve):
        cases.append((capacity, copy.deepcopy(tx_curve), copy.deepcopy(lr_curve)))
        return original(self, capacity, tx_curve, lr_curve)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BisectionArbiter, "split", capturing)
        run_scenario(Experiment.from_spec(name, overrides=overrides).materialize())
    return cases


@pytest.fixture(scope="module")
def captured():
    return {label: capture_splits(*run) for label, run in CAPTURED.items()}


# ----------------------------------------------------------------------
# Random curves
# ----------------------------------------------------------------------
@st.composite
def populations(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    t = draw(st.sampled_from([0.0, 3_000.0]))
    remaining = draw(st.lists(st.floats(1e4, 1e7), min_size=n, max_size=n))
    goal_lengths = draw(st.lists(st.floats(500.0, 2e4), min_size=n, max_size=n))
    ages = draw(st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n))
    importance = draw(
        st.one_of(
            st.just([1.0] * n),
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n),
        )
    )
    goal_lengths = np.asarray(goal_lengths)
    return JobPopulation(
        time=t,
        job_ids=tuple(f"j{i}" for i in range(n)),
        remaining=np.asarray(remaining),
        caps=np.full(n, 3000.0),
        goals_abs=t + goal_lengths * (1.0 - np.asarray(ages)),
        goal_lengths=goal_lengths,
        importance=np.asarray(importance, dtype=float),
    )


@st.composite
def app_curves(draw):
    """A closed-model app curve's parameters, optionally behind a network
    delay; ``build()`` makes a fresh curve."""
    clients = draw(st.floats(min_value=5.0, max_value=500.0))
    goal = draw(st.floats(min_value=0.15, max_value=2.0))
    delay = draw(st.sampled_from([0.0, 0.01, 0.05]))
    rt_tolerance = draw(st.one_of(st.just(0.05), st.floats(min_value=0.001, max_value=0.3)))

    def build():
        model = ClosedTransactionalModel(clients, 0.2, 300.0, 3000.0)
        if delay:
            model = NetworkAwareModel(inner=model, network_delay=delay)
        return TransactionalCurve(model, TransactionalUtility(goal + delay), rt_tolerance)

    return build


@st.composite
def split_cases(draw, apps: int):
    builders = [draw(app_curves()) for _ in range(apps)]
    population = draw(populations())
    metric = draw(st.sampled_from(["mean", "level"]))
    capacity = draw(st.floats(min_value=1_000.0, max_value=400_000.0))

    def build_tx():
        curves = [build() for build in builders]
        return curves[0] if apps == 1 else TransactionalAggregateCurve(curves)

    return capacity, build_tx(), LongRunningCurve(population, metric)


@given(split_cases(apps=1))
@settings(max_examples=150, deadline=None)
def test_single_app_splits_equal_reference(case):
    assert mismatches([case]) == []


@given(split_cases(apps=2))
@settings(max_examples=60, deadline=None)
def test_two_app_aggregate_splits_equal_reference(case):
    assert mismatches([case]) == []


@given(split_cases(apps=1), st.sampled_from([1e-3, 1e-6]), st.sampled_from([3, 80]))
@settings(max_examples=40, deadline=None)
def test_other_tolerances_and_depths_equal_reference(case, tolerance, iterations):
    arbiter = BisectionArbiter(utility_tolerance=tolerance, max_iterations=iterations)
    assert mismatches([case], arbiter) == []


# ----------------------------------------------------------------------
# Captured cycles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(CAPTURED))
def test_captured_splits_equal_reference(captured, name):
    cases = captured[name]
    assert len(cases) > 50
    assert mismatches(cases) == []


def test_a_wrong_prediction_costs_probes_not_results(captured, monkeypatch):
    """Thresholds moved far off the root: every split still equals the
    reference, and the wrong prediction shows as extra probes."""
    cases = captured["paper"]
    honest = _exact_evaluations(cases, monkeypatch)
    predicted = arbiter_module._predicted_band

    def far_off(*args):
        band = predicted(*args)
        if band is None:
            return None
        capacity = args[0]
        return band[0] - 0.3 * capacity, band[1] - 0.3 * capacity

    monkeypatch.setattr(arbiter_module, "_predicted_band", far_off)
    assert mismatches(cases) == []
    assert _exact_evaluations(cases, monkeypatch)[0] > honest[0]


def test_a_transactional_curve_that_cannot_invert_costs_no_predictor_pass(
    captured, monkeypatch
):
    """The split asks the long-running curve for no prediction once the
    transactional one declines, and still equals the reference."""
    calls = []
    predicted_allocation = HypotheticalEqualizer.predicted_allocation

    def counting(self, *args):
        calls.append(None)
        return predicted_allocation(self, *args)

    monkeypatch.setattr(HypotheticalEqualizer, "predicted_allocation", counting)
    cases = captured["paper"]
    assert mismatches(cases) == []
    assert calls
    del calls[:]
    monkeypatch.setattr(TransactionalCurve, "inverse", lambda self, target: None)
    assert mismatches(cases) == []
    assert calls == []


def _exact_evaluations(cases, monkeypatch) -> tuple[int, int]:
    """``(exact long-running evaluations, equalized splits)`` over ``cases``:
    each :meth:`HypotheticalEqualizer.metric_at` call is one evaluation
    the long-running curve's memo did not serve."""
    calls = []
    metric_at = HypotheticalEqualizer.metric_at

    def counting(self, *args, **kwargs):
        calls.append(None)
        return metric_at(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(HypotheticalEqualizer, "metric_at", counting)
        total = splits = 0
        for capacity, tx, lr in cases:
            del calls[:]
            result = BisectionArbiter().split(
                capacity, copy.deepcopy(tx), copy.deepcopy(lr)
            )
            if result.equalized:
                total += len(calls)
                splits += 1
    return total, splits


def test_paper_probes_at_most_seven_per_equalized_split(captured, monkeypatch):
    """A count, not a timing: the plain bisection spends ~13 exact
    long-running evaluations per equalized ``paper`` split."""
    total, splits = _exact_evaluations(captured["paper"], monkeypatch)
    assert splits > 50
    assert total / splits <= 7


# ----------------------------------------------------------------------
# The curves' inverses
# ----------------------------------------------------------------------
def _closed_curve(clients=210.0, goal=0.4, shape=None, rt_tolerance=0.05):
    model = ClosedTransactionalModel(clients, 0.2, 300.0, 3000.0)
    return TransactionalCurve(model, TransactionalUtility(goal, shape), rt_tolerance)


def test_inverses_agree_with_their_curves(captured):
    """Each curve's inverse, read back through :meth:`utility`, lands
    near the target utility (it only steers the prediction)."""
    for capacity, tx, lr in captured["multi-app-differentiation"][5:40:5]:
        for curve in (copy.deepcopy(tx), copy.deepcopy(lr)):
            target = curve.utility(0.4 * curve.max_utility_demand)
            allocation, slope = curve.inverse(target)
            assert math.isfinite(allocation) and slope >= 0
            assert curve.utility(allocation) == pytest.approx(target, abs=1e-6)


def test_aggregate_is_flat_above_its_plateau():
    aggregate = TransactionalAggregateCurve([_closed_curve(210.0), _closed_curve(90.0, 0.8)])
    plateau = aggregate.plateau
    assert plateau == aggregate.utility(aggregate.max_utility_demand)
    assert plateau < min(c.max_utility() for c in aggregate.members)
    reach = aggregate.allocation_for_utility(plateau)
    assert reach < aggregate.max_utility_demand
    assert aggregate.utility(0.5 * (reach + aggregate.max_utility_demand)) == pytest.approx(
        plateau, abs=1e-9
    )
    assert aggregate.allocation_for_utility(math.nextafter(plateau, 2.0)) == math.inf
    assert aggregate.inverse(plateau + 0.01) == (math.inf, 0.0)


@pytest.mark.parametrize("rt_tolerance", [0.001, 0.01, 0.049, 0.05, 0.2])
def test_an_aggregate_whose_share_drops_at_a_ceiling_does_not_invert(rt_tolerance):
    """Below the default 5% tolerance an app's demand exceeds its
    allocation for its ceiling utility, so the aggregate's level
    bisection runs on a curve that drops there; the app alone still
    inverts."""
    apps = [_closed_curve(210.0, rt_tolerance=rt_tolerance), _closed_curve(90.0, 0.8)]
    ceiling = apps[0].max_utility()
    below = apps[0].allocation_for_utility(math.nextafter(ceiling, 0.0))
    at = apps[0].allocation_for_utility(ceiling)
    drops = rt_tolerance < 0.05
    assert (below > at) == drops
    assert (at < apps[0].max_utility_demand) == drops
    assert apps[0].inverse(0.1) is not None
    assert (TransactionalAggregateCurve(apps).inverse(0.1) is None) == drops


def test_a_curve_that_cannot_invert_says_so():
    sigmoid = _closed_curve(shape=SigmoidUtility())
    assert sigmoid.inverse(0.1) is None
    assert TransactionalAggregateCurve([_closed_curve(), sigmoid]).inverse(0.1) is None
    open_model = OpenTransactionalModel(50.0, 300.0, 3000.0)
    assert TransactionalCurve(open_model, TransactionalUtility(0.4)).inverse(0.1) is None
    negative = JobPopulation(
        time=0.0,
        job_ids=("a", "b"),
        remaining=np.array([1e6, 2e6]),
        caps=np.full(2, 3000.0),
        goals_abs=np.array([4000.0, 6000.0]),
        goal_lengths=np.array([4000.0, 6000.0]),
        importance=np.array([1.0, -1.0]),
    )
    assert LongRunningCurve(negative, "mean").inverse(0.1) is None
    assert LongRunningCurve(negative, "level").inverse(0.1) is not None
