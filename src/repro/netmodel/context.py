"""The network context handed to the placement controller.

Bundles the scenario's :class:`~repro.netmodel.topology.NetworkSpec`
with the node-id -> zone map of the materialized cluster, and answers
the two questions the control loop asks each cycle: *what is the expected
network RTT of this app's current placement* (folded into the perf
model, see :func:`repro.perf.estimator.with_network_delay`) and *which
nodes should new instances prefer* (turned into the solver's
preferred-node ranking).

A frozen dataclass over a plain dict: one context is shared, read-only,
by every sub-controller of a sharded run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..errors import ConfigurationError
from .topology import NetworkSpec

__all__ = ["NetworkContext"]


@dataclass(frozen=True)
class NetworkContext:
    """A zoned network bound to a concrete cluster's node-zone map."""

    network: NetworkSpec
    node_zone: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        node_zone = dict(self.node_zone)
        object.__setattr__(self, "node_zone", node_zone)
        declared = self.network.zone_names()
        for node_id, zone in node_zone.items():
            if zone not in declared:
                raise ConfigurationError(
                    f"node {node_id!r} is in zone {zone!r}, which the "
                    f"network does not declare (declared: {', '.join(declared)})"
                )

    def serving_zones(self, nodes: Iterable[str]) -> tuple[str, ...]:
        """Sorted unique zones of the given node ids."""
        zones = {self.node_zone[n] for n in nodes if n in self.node_zone}
        return tuple(sorted(zones))

    def expected_rtt_s(self, nodes: Iterable[str]) -> float:
        """Expected network RTT (s) of serving from the given nodes."""
        return self.network.expected_rtt_s(self.serving_zones(nodes))

    def in_zone_fraction(self, nodes: Iterable[str]) -> float:
        """User mass served from its own zone by the given nodes."""
        return self.network.in_zone_fraction(self.serving_zones(nodes))

    def preferred_nodes(
        self, nodes: Iterable[str], current_nodes: Iterable[str]
    ) -> tuple[tuple[str, int], ...]:
        """Latency rank per candidate node: ``(node_id, rank)`` pairs.

        Zones are ranked by the marginal expected-RTT reduction an
        instance there would buy over the app's *current* serving set
        (ties broken by zone name for determinism); only zones with a
        strictly positive gain appear -- everything else is left to the
        solver's free-CPU ordering.  Lower rank = more preferred.
        """
        gains = self.network.placement_gain_ms(
            self.serving_zones(current_nodes)
        )
        ranked = [
            zone
            for zone, gain in sorted(gains.items(), key=lambda kv: (-kv[1], kv[0]))
            if gain > 1e-9
        ]
        rank_of = {zone: rank for rank, zone in enumerate(ranked)}
        pairs = []
        for node_id in sorted(set(nodes)):
            zone = self.node_zone.get(node_id)
            if zone in rank_of:
                pairs.append((node_id, rank_of[zone]))
        return tuple(pairs)
