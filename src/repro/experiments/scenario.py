"""Experiment scenarios.

A :class:`Scenario` is a fully materialized experiment description:
cluster topology, transactional applications with their intensity
profiles, the job-submission trace, controller configuration, action
costs, measurement noise, horizon and seed.  Scenarios are described by
the spec registry (:mod:`repro.api.scenarios`, which also holds the
paper's parameters) and built with
:meth:`~repro.api.spec.ScenarioSpec.materialize`::

    scenario = scenario_spec("paper", scale=0.2).materialize()
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from ..cluster.actions import ActionCosts
from ..config import ControllerConfig, NoiseConfig
from ..errors import ConfigurationError
from ..netmodel.topology import NetworkSpec
from ..types import Seconds
from ..workloads.jobs import JobSpec
from ..workloads.profiles import IntensityProfile
from ..workloads.transactional import TransactionalAppSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.spec import TopologySpec


@dataclass(frozen=True)
class NodeFailure:
    """A scheduled node outage (failure injection experiments)."""

    at: Seconds
    node_id: str
    restore_at: Optional[Seconds] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("failure time must be non-negative")
        if self.restore_at is not None and self.restore_at <= self.at:
            raise ConfigurationError("restore_at must come after the failure")


@dataclass(frozen=True)
class NodeBrownout:
    """A scheduled capacity brownout: the node keeps running but serves
    only ``fraction`` of its nominal CPU speed until ``restore_at``."""

    at: Seconds
    node_id: str
    fraction: float
    restore_at: Optional[Seconds] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("brownout time must be non-negative")
        if not 0 < self.fraction < 1:
            raise ConfigurationError("brownout fraction must be in (0, 1)")
        if self.restore_at is not None and self.restore_at <= self.at:
            raise ConfigurationError("restore_at must come after the brownout")


@dataclass(frozen=True)
class AppWorkload:
    """One managed transactional application plus its load profile."""

    spec: TransactionalAppSpec
    profile: IntensityProfile


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible experiment description."""

    name: str
    #: The spec's topology, which builds the cluster
    #: (``topology.build_cluster()``) and its node -> zone map.
    topology: TopologySpec
    apps: tuple[AppWorkload, ...]
    job_specs: tuple[JobSpec, ...]
    controller: ControllerConfig
    costs: ActionCosts
    noise: NoiseConfig
    horizon: Seconds
    seed: int
    failures: tuple[NodeFailure, ...] = field(default_factory=tuple)
    #: Scheduled capacity brownouts (typically compiled from a
    #: :class:`repro.faults.FaultPlanSpec` by ``ScenarioSpec.materialize``).
    brownouts: tuple[NodeBrownout, ...] = field(default_factory=tuple)
    #: Optional network model (the spec's ``[network]`` block): zone RTTs
    #: and user populations.  ``None`` means the scenario is latency-blind
    #: and behaves exactly as before the network subsystem existed.
    network: Optional[NetworkSpec] = None

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")

    @property
    def num_nodes(self) -> int:
        """Node count of the topology."""
        return self.topology.total_nodes

    def with_controller(self, controller: ControllerConfig) -> "Scenario":
        """Copy of the scenario with a different controller configuration."""
        return replace(self, controller=controller)

    def with_failures(self, failures: Sequence[NodeFailure]) -> "Scenario":
        """Copy of the scenario with scheduled node outages."""
        return replace(self, failures=tuple(failures))

    def with_brownouts(self, brownouts: Sequence[NodeBrownout]) -> "Scenario":
        """Copy of the scenario with scheduled capacity brownouts."""
        return replace(self, brownouts=tuple(brownouts))
