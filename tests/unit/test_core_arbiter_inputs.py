"""The arbiters reject a capacity they cannot split, naming it.

A NaN capacity passes a ``capacity < 0`` check and used to fail inside a
curve probe (``allocation must be non-negative, got nan``), far from its
cause.
"""

import math

import pytest

from repro.core import BisectionArbiter, LongRunningCurve, StealingArbiter, TransactionalCurve
from repro.errors import ConfigurationError
from repro.perf import ClosedTransactionalModel
from repro.utility import TransactionalUtility

from ..conftest import make_population


def _curves():
    model = ClosedTransactionalModel(210.0, 0.2, 300.0, 3000.0)
    population = make_population(0.0, [3_000_000.0] * 60)
    return TransactionalCurve(model, TransactionalUtility(0.4)), LongRunningCurve(population)


def test_bisection_rejects_a_nan_capacity():
    with pytest.raises(ConfigurationError, match="capacity must be non-negative, got nan"):
        BisectionArbiter().split(math.nan, *_curves())


def test_stealing_rejects_a_nan_capacity():
    with pytest.raises(ConfigurationError, match="capacity must be non-negative, got nan"):
        StealingArbiter().split(math.nan, *_curves())
