"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses are grouped by subsystem:
configuration, cluster/placement feasibility, simulation-kernel misuse,
performance-model domain errors and experiment-shape validation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A scenario, controller or model configuration value is invalid."""


class PlacementError(ReproError):
    """A placement violates CPU, memory or lifecycle constraints."""


class UnknownEntityError(ReproError):
    """A node, VM, application or job identifier is not registered."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel was used incorrectly.

    Typical causes: scheduling an event in the past, running a finished
    simulator, or re-cancelling a consumed event.
    """


class LifecycleError(ReproError):
    """An illegal state transition was requested on a VM or job."""


class ModelError(ReproError):
    """A performance-model evaluation is outside its domain.

    For example a queueing model evaluated with a negative arrival rate,
    or an inversion target that no allocation can reach.
    """


class EstimationError(ReproError):
    """A demand estimator was queried before observing any samples."""


class ShapeValidationError(ReproError):
    """An experiment result failed the paper-shape acceptance criteria.

    Raised by :mod:`repro.analysis.validate` when a reproduced figure does
    not exhibit the qualitative features reported by the paper (crossover,
    equalization, recovery, ...).
    """


class DecisionTimeoutError(ReproError):
    """A control cycle overran its ``decide_budget_ms`` deadline.

    Raised by :class:`repro.core.resilient.ResilientController` when the
    wrapped policy exceeds the configured decision budget and
    ``decide_budget_strict`` is set; non-strict overruns are only counted.
    """


class DegradedModeError(ReproError):
    """The control plane stayed degraded for too many consecutive cycles.

    Raised by :class:`repro.core.resilient.ResilientController` once more
    than ``max_consecutive_degraded`` cycles in a row fell back to the
    last-known-good placement, signalling that graceful degradation has
    stopped being a transient condition.
    """
