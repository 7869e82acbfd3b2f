"""Cluster: the collection of nodes managed by one placement controller.

Tracks which nodes are *active* (powered and healthy).  Failure injection
(:meth:`Cluster.fail_node` / :meth:`Cluster.restore_node`) removes and
returns capacity; the experiment runner is responsible for rescuing the
workloads that were placed on a failed node.

Brownouts (:meth:`Cluster.set_brownout` / :meth:`Cluster.clear_brownout`)
model partial degradation: the node stays active but every lookup returns
a spec whose per-processor speed is derated to the brownout fraction, so
controllers and placement validation see the reduced capacity without any
special-casing.

The live view is one :class:`~repro.cluster.node.NodeTable` -- the
active nodes' (derated) specs in registration order, their id map and
id-sorted capacity columns -- plus the active memory and nominal CPU
sums.  It is kept, not rebuilt per query: every control cycle reads it
(the runner hands :attr:`Cluster.node_table` to the policy and to
:meth:`~repro.cluster.placement.Placement.validate`), and only the four
health calls change it.  Each drops it, and the first read after builds
a new table with the same sums in the same order, so health changes
that follow each other before a read build one table, not one each.
Between them the table is the same object.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional

from ..errors import ConfigurationError, UnknownEntityError
from ..types import Megabytes, Mhz
from .node import NodeSpec, NodeTable


class Cluster:
    """An ordered set of :class:`~repro.cluster.node.NodeSpec` with health state."""

    def __init__(self, nodes: Iterable[NodeSpec]) -> None:
        self._nodes: dict[str, NodeSpec] = {}
        for node in nodes:
            if node.node_id in self._nodes:
                raise ConfigurationError(f"duplicate node id {node.node_id!r}")
            self._nodes[node.node_id] = node
        if not self._nodes:
            raise ConfigurationError("cluster must contain at least one node")
        self._failed: set[str] = set()
        self._brownout: dict[str, float] = {}
        #: The live view, None after a health change until the next read.
        self._table: Optional[NodeTable] = None
        self._total_memory: Megabytes = 0.0
        self._nominal_cpu: Mhz = 0.0

    def _refresh_live(self) -> None:
        """Drop the live view after a health change."""
        self._table = None

    def _live(self) -> NodeTable:
        """The live view's table, built on the first read after a change."""
        table = self._table
        if table is None:
            failed = self._failed
            nominal = [n for nid, n in self._nodes.items() if nid not in failed]
            table = self._table = NodeTable(map(self._effective, nominal))
            self._total_memory = sum(n.memory_mb for n in table)
            self._nominal_cpu = sum(n.cpu_capacity for n in nominal)
        return table

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeSpec]:
        return iter(self._effective(n) for n in self._nodes.values())

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def node(self, node_id: str) -> NodeSpec:
        """Return the node with the given id.

        Raises
        ------
        UnknownEntityError
            If no such node exists.
        """
        try:
            return self._effective(self._nodes[node_id])
        except KeyError:
            raise UnknownEntityError(f"unknown node {node_id!r}") from None

    def _effective(self, node: NodeSpec) -> NodeSpec:
        """The node spec with any brownout derating applied."""
        fraction = self._brownout.get(node.node_id)
        if fraction is None:
            return node
        return dataclasses.replace(
            node, mhz_per_processor=node.mhz_per_processor * fraction
        )

    @property
    def node_ids(self) -> list[str]:
        """All node ids, in registration order."""
        return list(self._nodes)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def fail_node(self, node_id: str) -> None:
        """Mark ``node_id`` as failed; its capacity disappears."""
        self.node(node_id)  # validate
        self._failed.add(node_id)
        self._refresh_live()

    def restore_node(self, node_id: str) -> None:
        """Return a previously failed node to service."""
        self.node(node_id)  # validate
        self._failed.discard(node_id)
        self._refresh_live()

    def is_active(self, node_id: str) -> bool:
        """Whether the node is registered and not failed."""
        return node_id in self._nodes and node_id not in self._failed

    @property
    def failed_node_ids(self) -> set[str]:
        """Ids of currently failed nodes (copy)."""
        return set(self._failed)

    @property
    def node_table(self) -> NodeTable:
        """The healthy nodes (brownout-derated) as one shared, read-only
        table, specs in registration order; a new object after each
        health change, the same one between them."""
        return self._live()

    def active_nodes(self) -> list[NodeSpec]:
        """All healthy nodes (brownout-derated), in registration order."""
        return list(self._live())

    @property
    def active_node_map(self) -> Mapping[str, NodeSpec]:
        """Read-only id -> spec map of :meth:`active_nodes`."""
        return MappingProxyType(self._live().by_id)

    # ------------------------------------------------------------------
    # Brownouts
    # ------------------------------------------------------------------
    def set_brownout(self, node_id: str, fraction: float) -> None:
        """Derate ``node_id`` to ``fraction`` of its nominal CPU speed."""
        if node_id not in self._nodes:
            raise UnknownEntityError(f"unknown node {node_id!r}")
        if not 0 < fraction <= 1:
            raise ConfigurationError("brownout fraction must be in (0, 1]")
        if fraction == 1.0:
            self._brownout.pop(node_id, None)
        else:
            self._brownout[node_id] = fraction
        self._refresh_live()

    def clear_brownout(self, node_id: str) -> None:
        """Restore ``node_id`` to its nominal CPU speed."""
        if node_id not in self._nodes:
            raise UnknownEntityError(f"unknown node {node_id!r}")
        self._brownout.pop(node_id, None)
        self._refresh_live()

    def brownout_fraction(self, node_id: str) -> float:
        """Current speed fraction of ``node_id`` (1.0 when not browned out)."""
        if node_id not in self._nodes:
            raise UnknownEntityError(f"unknown node {node_id!r}")
        return self._brownout.get(node_id, 1.0)

    @property
    def brownout_capacity_fraction(self) -> float:
        """Fraction of active *nominal* CPU currently shed by brownouts."""
        total_cpu = self._live().total_cpu
        if self._nominal_cpu <= 0:
            return 0.0
        return 1.0 - total_cpu / self._nominal_cpu

    # ------------------------------------------------------------------
    # Aggregate capacity
    # ------------------------------------------------------------------
    @property
    def total_cpu_capacity(self) -> Mhz:
        """Sum of CPU power over *active* nodes, in MHz."""
        return self._live().total_cpu

    @property
    def total_memory(self) -> Megabytes:
        """Sum of memory over *active* nodes, in MB."""
        self._live()
        return self._total_memory

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster({len(self._nodes)} nodes, {len(self._failed)} failed, "
            f"{self.total_cpu_capacity:.0f} MHz active)"
        )
