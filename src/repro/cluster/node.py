"""Physical node model.

A node is a machine in the data center with a fixed number of processors,
a per-processor speed in MHz and a memory size in MB.  Matching the paper's
evaluation setup, CPU power is treated as a fluid resource of
``processors x mhz_per_processor`` MHz that the hypervisor can divide
arbitrarily among hosted virtual machines, while any *single* VM thread is
capped at one processor's speed (enforced by the workload models, not by
the node itself).

A :class:`NodeTable` holds one set of live nodes both ways: the specs in
registration order, and id-sorted columns that the solver's residual
state and :meth:`~repro.cluster.placement.Placement.violation` read
without a pass over the specs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..errors import ConfigurationError
from ..types import Megabytes, Mhz

#: Relative and absolute slack by which a node's CPU or memory sum may
#: exceed its capacity and still fit, to absorb float round-off (see
#: :meth:`~repro.cluster.placement.Placement.violation`).
FIT_TOLERANCE = 1e-6


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """Immutable hardware description of one node.

    Attributes
    ----------
    node_id:
        Unique identifier within a cluster.
    processors:
        Number of physical processors (>= 1).
    mhz_per_processor:
        Speed of each processor in MHz.
    memory_mb:
        Installed memory in MB.
    """

    node_id: str
    processors: int
    mhz_per_processor: Mhz
    memory_mb: Megabytes

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ConfigurationError("node_id must be non-empty")
        if self.processors < 1:
            raise ConfigurationError(f"node {self.node_id}: processors must be >= 1")
        if self.mhz_per_processor <= 0:
            raise ConfigurationError(
                f"node {self.node_id}: mhz_per_processor must be positive"
            )
        if self.memory_mb <= 0:
            raise ConfigurationError(f"node {self.node_id}: memory_mb must be positive")

    @property
    def cpu_capacity(self) -> Mhz:
        """Total fluid CPU power of the node in MHz."""
        return self.processors * self.mhz_per_processor

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.node_id}: {self.processors}x{self.mhz_per_processor:.0f} MHz, "
            f"{self.memory_mb:.0f} MB"
        )


class NodeTable(Sequence[NodeSpec]):
    """Live node specs, in registration order, with id-sorted columns.

    As a sequence it yields the specs in the order given.  Beside them:

    * ``ids``: the node ids, sorted ascending;
    * ``pos``: id -> position in ``ids``;
    * ``cpu`` and ``mem``: each node's CPU capacity (MHz) and memory (MB)
      in ``ids`` order, as read-only float64 arrays;
    * ``cpu_fit`` and ``mem_fit``: the most CPU and memory each node
      holds within :data:`FIT_TOLERANCE` (``capacity * (1 + tol) +
      tol``), in ``ids`` order and then one NaN, which no sum fits under:
      position ``-1`` stands for a node the table does not have;
    * ``by_id``: id -> spec;
    * ``total_cpu``: the capacities summed in registration order.

    A :class:`~repro.cluster.cluster.Cluster` builds one on the first
    read after each health change.  Every consumer takes any node sequence and converts it once
    with :meth:`of`, which hands a table back as is.  Treat the columns
    as read-only: the table is shared.
    """

    __slots__ = (
        "_specs", "ids", "pos", "cpu", "mem", "cpu_fit", "mem_fit", "by_id", "total_cpu"
    )

    def __init__(self, nodes: Iterable[NodeSpec]) -> None:
        specs = tuple(nodes)
        by_id = {n.node_id: n for n in specs}
        if len(by_id) != len(specs):
            raise ConfigurationError("duplicate node ids in one node table")
        ids = sorted(by_id)
        ordered = list(map(by_id.__getitem__, ids))
        # One (2, n + 1) array: capacities, then the NaN of "no node".
        caps = np.array(
            [
                [n.cpu_capacity for n in ordered] + [math.nan],
                [n.memory_mb for n in ordered] + [math.nan],
            ],
            dtype=float,
        )
        fit = caps * (1 + FIT_TOLERANCE) + FIT_TOLERANCE
        caps.flags.writeable = fit.flags.writeable = False
        self._specs = specs
        self.ids: list[str] = ids
        self.pos: dict[str, int] = dict(zip(ids, range(len(ids))))
        self.cpu: np.ndarray = caps[0, :-1]
        self.mem: np.ndarray = caps[1, :-1]
        self.cpu_fit: np.ndarray = fit[0]
        self.mem_fit: np.ndarray = fit[1]
        self.by_id: dict[str, NodeSpec] = by_id
        self.total_cpu: Mhz = sum(n.cpu_capacity for n in specs)

    @classmethod
    def of(cls, nodes: Iterable[NodeSpec]) -> "NodeTable":
        """``nodes`` as a table: a table as is, anything else converted."""
        return nodes if isinstance(nodes, NodeTable) else cls(nodes)

    def __len__(self) -> int:
        return len(self._specs)

    def __getitem__(self, index):
        return self._specs[index]

    def __iter__(self) -> Iterator[NodeSpec]:
        return iter(self._specs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodeTable({len(self._specs)} nodes, {self.total_cpu:.0f} MHz)"
