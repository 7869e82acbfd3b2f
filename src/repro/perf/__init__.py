"""Performance models: queueing predictions, demand estimation, job
population snapshots and request-level validation micro-simulators."""

from .estimator import EwmaEstimator, ParameterTracker
from .jobmodel import JobPopulation, snapshot_jobs
from .microsim import MicrosimResult, simulate_closed_interactive, simulate_open_mmc
from .queueing import (
    DEFAULT_RT_TOLERANCE,
    ClosedTransactionalModel,
    OpenTransactionalModel,
    TransactionalPerfModel,
    erlang_b,
    erlang_c,
)

__all__ = [
    "erlang_b",
    "erlang_c",
    "OpenTransactionalModel",
    "ClosedTransactionalModel",
    "TransactionalPerfModel",
    "DEFAULT_RT_TOLERANCE",
    "EwmaEstimator",
    "ParameterTracker",
    "JobPopulation",
    "snapshot_jobs",
    "MicrosimResult",
    "simulate_open_mmc",
    "simulate_closed_interactive",
]
