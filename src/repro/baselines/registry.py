"""Placement-policy registry.

The decision-maker counterpart of the solver-backend registry
(:mod:`repro.core.backends`): the paper's utility-driven controller and
every baseline are selectable *by name*, so experiments, the CLI and
sweeps pick policies declaratively instead of importing classes and
hand-wiring constructors:

    >>> from repro.baselines.registry import get_policy
    >>> from repro.api import scenario_spec
    >>> policy = get_policy("fcfs")(scenario_spec("smoke").materialize())

Every entry is a module-level ``factory(scenario) -> PlacementPolicy``
(module-level so factories stay picklable for ``run_sweep(workers=N)``
process pools).  Third-party policies register themselves via
:func:`register_policy` before experiments are constructed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..experiments.runner import PolicyFactory, default_policy_factory
from ..faults.chaos import ChaosPolicy
from .edf_scheduler import EdfSharedPolicy
from .fcfs import FcfsSharedPolicy
from .static_partition import StaticPartitionPolicy
from .tx_priority import TxPriorityPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import PlacementPolicy
    from ..experiments.scenario import Scenario

_REGISTRY: dict[str, PolicyFactory] = {}


def register_policy(
    name: str, factory: PolicyFactory, *, overwrite: bool = False
) -> None:
    """Register ``factory`` under ``name``.

    Raises :class:`ConfigurationError` when ``name`` is empty or already
    taken (unless ``overwrite=True``, which lets tests and downstream
    packages shadow a built-in).
    """
    if not name:
        raise ConfigurationError("policy name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"policy {name!r} is already registered")
    _REGISTRY[name] = factory


def get_policy(name: str) -> PolicyFactory:
    """The factory registered under ``name``.

    Raises :class:`ConfigurationError` listing the registered names when
    ``name`` is unknown (same error style as
    :func:`repro.core.backends.get_backend`).
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ConfigurationError(
            f"unknown placement policy {name!r} (registered: {known})"
        ) from None


def available_policies() -> tuple[str, ...]:
    """Sorted names of all registered policies."""
    return tuple(sorted(_REGISTRY))


def make_policy(name: str, scenario: "Scenario") -> "PlacementPolicy":
    """Instantiate the policy registered under ``name`` for ``scenario``."""
    return get_policy(name)(scenario)


# ----------------------------------------------------------------------
# Built-in policies.  Each factory is a named module-level function so
# `run_sweep(workers=N)` can pickle it into worker processes.  The
# default "utility" entry is the runner's own factory, so registry runs
# and hand-wired `run_scenario(scenario)` runs can never diverge.
# ----------------------------------------------------------------------
utility_policy = default_policy_factory


def static_partition_policy(scenario: "Scenario") -> "PlacementPolicy":
    """Fixed node split between job and web partitions."""
    return StaticPartitionPolicy(
        [workload.spec for workload in scenario.apps], scenario.controller
    )


def fcfs_policy(scenario: "Scenario") -> "PlacementPolicy":
    """Shared cluster, first-come first-served job admission."""
    return FcfsSharedPolicy(
        [workload.spec for workload in scenario.apps], scenario.controller
    )


def edf_policy(scenario: "Scenario") -> "PlacementPolicy":
    """Shared cluster, earliest-deadline-first job admission."""
    return EdfSharedPolicy(
        [workload.spec for workload in scenario.apps], scenario.controller
    )


def tx_priority_policy(scenario: "Scenario") -> "PlacementPolicy":
    """Web demand satisfied first; jobs share the leftovers."""
    return TxPriorityPolicy(
        [workload.spec for workload in scenario.apps], scenario.controller
    )


def chaos_utility_policy(scenario: "Scenario") -> "PlacementPolicy":
    """The utility controller with seeded random decide() failures.

    Chaos-testing factory: wraps the default policy in a
    :class:`~repro.faults.chaos.ChaosPolicy` that deterministically
    (from the scenario seed) raises on ~20% of control cycles, so the
    :class:`~repro.core.resilient.ResilientController` fallback path is
    exercised end-to-end by the ``chaos-smoke`` CI job.
    """
    return ChaosPolicy(
        default_policy_factory(scenario), error_rate=0.2, seed=scenario.seed
    )


register_policy("utility", default_policy_factory)
register_policy("static-partition", static_partition_policy)
register_policy("fcfs", fcfs_policy)
register_policy("edf", edf_policy)
register_policy("tx-priority", tx_priority_policy)
register_policy("chaos-utility", chaos_utility_policy)
