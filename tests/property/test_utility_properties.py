"""Property-based tests for utility shapes (monotonicity, bounds)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransactionalCurve
from repro.netmodel.model import NetworkAwareModel
from repro.perf.queueing import ClosedTransactionalModel, OpenTransactionalModel
from repro.utility import (
    LinearUtility,
    PiecewiseLinearUtility,
    SigmoidUtility,
    StepUtility,
)
from repro.utility.transactional import TransactionalUtility

slacks = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def shape_strategies():
    return st.one_of(
        st.builds(LinearUtility, floor=st.floats(-10.0, -0.1)),
        st.builds(
            SigmoidUtility,
            midpoint=st.floats(-1.0, 1.0),
            steepness=st.floats(0.5, 20.0),
        ),
        st.builds(StepUtility, threshold=st.floats(-1.0, 1.0)),
        st.just(PiecewiseLinearUtility([(-1.0, -1.0), (0.0, 0.2), (1.0, 1.0)])),
    )


@given(shape_strategies(), slacks, slacks)
@settings(max_examples=300, deadline=None)
def test_all_shapes_monotone_nondecreasing(shape, a, b):
    lo, hi = min(a, b), max(a, b)
    assert shape(lo) <= shape(hi) + 1e-12


@given(shape_strategies(), slacks)
@settings(max_examples=300, deadline=None)
def test_all_shapes_bounded_and_finite(shape, slack):
    value = shape(slack)
    assert math.isfinite(value)
    assert -10.0 <= value <= 1.0


@given(st.floats(-0.99, 0.99))
@settings(max_examples=200, deadline=None)
def test_linear_inverse_round_trip(utility):
    shape = LinearUtility(floor=-1.0)
    assert shape(shape.inverse(utility)) == utility


@st.composite
def web_curves(draw):
    """A random closed or open model, bare or behind a network delay,
    with a goal above its response-time floor."""
    cycles = draw(st.floats(10.0, 1000.0))
    cap = draw(st.floats(500.0, 4000.0))
    if draw(st.booleans()):
        model = ClosedTransactionalModel(
            draw(st.floats(5.0, 500.0)), draw(st.floats(0.0, 5.0)), cycles, cap
        )
    else:
        model = OpenTransactionalModel(draw(st.floats(0.1, 50.0)), cycles, cap)
    if draw(st.booleans()):
        model = NetworkAwareModel(model, draw(st.floats(0.0, 0.3)))
    floor = model.min_response_time
    goal = draw(st.floats(0.15, 2.0).filter(lambda g: g > 1.001 * floor))
    return model, TransactionalUtility(goal)


@pytest.mark.parametrize("rt_tolerance", [0.01, 0.05])
@given(curve=web_curves())
@settings(max_examples=400, deadline=None)
def test_inversion_is_total_one_ulp_below_the_ceiling(curve, rt_tolerance):
    """Just below the ceiling the response-time target can round to the
    floor, which the closed model reaches only at its knee and the open
    model never: the inversion still answers, with what the ceiling
    gets, and the curve's allocation does not decrease through the
    ceiling."""
    model, utility = curve
    app = TransactionalCurve(model, utility, rt_tolerance)
    ceiling = app.max_utility()
    assert ceiling == utility.max_utility(model)
    below = math.nextafter(ceiling, 0.0)
    assert math.isfinite(utility.allocation_for_utility(model, below, rt_tolerance))
    at = app.allocation_for_utility(ceiling)
    assert at == app.max_utility_demand
    levels = [below]
    for _ in range(3):
        levels.append(math.nextafter(levels[-1], 0.0))
    allocations = [app.allocation_for_utility(level) for level in reversed(levels)]
    assert allocations == sorted(allocations)
    assert allocations[-1] <= at


@pytest.mark.parametrize(
    "arrivals, cycles, cap, delay, goal",
    [(12.0, 724.6, 1287.0, 0.176, 1.651), (49.2, 850.2, 1249.0, 0.188, 1.583)],
)
def test_a_network_delay_does_not_round_the_target_onto_the_floor(
    arrivals, cycles, cap, delay, goal
):
    """Above the delayed model's floor, ``target - delay`` can round onto
    the open model's floor, which it rejects; the queueing share stays
    one ulp above it."""
    model = NetworkAwareModel(OpenTransactionalModel(arrivals, cycles, cap), delay)
    app = TransactionalCurve(model, TransactionalUtility(goal), 0.05)
    below = math.nextafter(app.max_utility(), 0.0)
    target = goal * (1.0 - below)
    assert target > model.min_response_time
    assert target - delay <= model.inner.min_response_time
    assert app.allocation_for_utility(below) == app.max_utility_demand
