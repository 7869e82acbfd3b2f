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
from typing import Optional, Sequence

from ..cluster.actions import ActionCosts
from ..cluster.cluster import Cluster
from ..cluster.topology import (
    NodeClass,
    cluster_from_classes,
    homogeneous_cluster,
    zone_map_from_classes,
)
from ..config import ControllerConfig, NoiseConfig
from ..errors import ConfigurationError
from ..netmodel.topology import ZoneTopology
from ..types import Seconds
from ..workloads.jobs import JobSpec
from ..workloads.profiles import IntensityProfile
from ..workloads.transactional import TransactionalAppSpec


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
    num_nodes: int
    node_processors: int
    node_mhz: float
    node_memory_mb: float
    apps: tuple[AppWorkload, ...]
    job_specs: tuple[JobSpec, ...]
    controller: ControllerConfig
    costs: ActionCosts
    noise: NoiseConfig
    horizon: Seconds
    seed: int
    failures: tuple[NodeFailure, ...] = field(default_factory=tuple)
    #: Optional heterogeneous topology: when non-empty the cluster is
    #: built from these classes instead of ``num_nodes`` identical nodes
    #: (the ``node_*`` fields then describe the first class, for
    #: homogeneous-only consumers such as the paper-shape validator).
    node_classes: tuple[NodeClass, ...] = field(default_factory=tuple)
    #: Scheduled capacity brownouts (typically compiled from a
    #: :class:`repro.faults.FaultPlanSpec` by ``ScenarioSpec.materialize``).
    brownouts: tuple[NodeBrownout, ...] = field(default_factory=tuple)
    #: Optional network model (the spec's ``[network]`` block): zone RTTs
    #: and user populations.  ``None`` means the scenario is latency-blind
    #: and behaves exactly as before the network subsystem existed.
    network: Optional[ZoneTopology] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.node_classes:
            total = sum(cls.count for cls in self.node_classes)
            if total != self.num_nodes:
                raise ConfigurationError(
                    f"node_classes count {total} != num_nodes {self.num_nodes}"
                )
        if self.network is not None:
            if not self.node_classes:
                raise ConfigurationError(
                    "a network topology requires a cluster built from node "
                    "classes (zones)"
                )
            for cls in self.node_classes:
                zone = cls.zone or cls.name
                if zone not in self.network.zones:
                    raise ConfigurationError(
                        f"node class {cls.name!r} is in zone {zone!r}, which "
                        f"the network topology does not declare "
                        f"(declared: {', '.join(self.network.zones)})"
                    )

    def build_cluster(self) -> Cluster:
        """Materialize the cluster topology."""
        if self.node_classes:
            return cluster_from_classes(self.node_classes)
        return homogeneous_cluster(
            self.num_nodes,
            processors=self.node_processors,
            mhz_per_processor=self.node_mhz,
            memory_mb=self.node_memory_mb,
        )

    @property
    def cluster_capacity(self) -> float:
        """Aggregate CPU capacity (MHz), correct for both topology forms.

        Consumers must use this instead of multiplying the ``node_*``
        fields, which describe only the first class of a heterogeneous
        cluster.
        """
        if self.node_classes:
            return sum(cls.cpu_capacity for cls in self.node_classes)
        return self.num_nodes * self.node_processors * self.node_mhz

    def node_zone_map(self) -> dict[str, str]:
        """Node-id -> zone map of the topology (empty when homogeneous)."""
        if not self.node_classes:
            return {}
        return zone_map_from_classes(self.node_classes)

    def with_controller(self, controller: ControllerConfig) -> "Scenario":
        """Copy of the scenario with a different controller configuration."""
        return replace(self, controller=controller)

    def with_failures(self, failures: Sequence[NodeFailure]) -> "Scenario":
        """Copy of the scenario with scheduled node outages."""
        return replace(self, failures=tuple(failures))

    def with_brownouts(self, brownouts: Sequence[NodeBrownout]) -> "Scenario":
        """Copy of the scenario with scheduled capacity brownouts."""
        return replace(self, brownouts=tuple(brownouts))
