"""Cluster topology builders.

Constructors for the node populations of the paper's evaluation and the
extended experiments: homogeneous clusters and heterogeneous clusters
built from named :class:`NodeClass` entries.  Each node-id format is
built in one place -- :func:`homogeneous_node_ids` (``node000`` ...) and
:meth:`NodeClass.node_ids` (``<class>-000`` ...) -- and node ids order
the solver's tie-breaks, so they decide outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import ConfigurationError
from ..types import Megabytes, Mhz
from .cluster import Cluster
from .node import NodeSpec

#: Node shape of the paper's evaluation: 4 processors each.
PAPER_PROCESSORS = 4
#: Per-processor speed chosen so the cluster capacity (300 GHz) sits inside
#: the 0-450 GHz range of the paper's Figure 2 demand curves.
PAPER_MHZ_PER_PROCESSOR: Mhz = 3000.0
#: Node memory sized so that exactly three jobs (1200 MB each, see
#: :mod:`repro.experiments.scenario`) fit on a node together with one web
#: instance (400 MB) -- "only three jobs will fit on a node at once".
PAPER_NODE_MEMORY_MB: Megabytes = 4000.0


def homogeneous_node_ids(num_nodes: int, prefix: str = "node") -> list[str]:
    """Ids of ``num_nodes`` identical nodes: ``f"{prefix}{i:03d}"``."""
    return [f"{prefix}{i:03d}" for i in range(num_nodes)]


def homogeneous_cluster(
    num_nodes: int,
    processors: int = PAPER_PROCESSORS,
    mhz_per_processor: Mhz = PAPER_MHZ_PER_PROCESSOR,
    memory_mb: Megabytes = PAPER_NODE_MEMORY_MB,
    prefix: str = "node",
) -> Cluster:
    """Build a cluster of ``num_nodes`` identical nodes, ids from
    :func:`homogeneous_node_ids`."""
    if num_nodes < 1:
        raise ConfigurationError("num_nodes must be >= 1")
    return Cluster(
        NodeSpec(
            node_id=node_id,
            processors=processors,
            mhz_per_processor=mhz_per_processor,
            memory_mb=memory_mb,
        )
        for node_id in homogeneous_node_ids(num_nodes, prefix)
    )


@dataclass(frozen=True, slots=True)
class NodeClass:
    """A named class of identical nodes inside a heterogeneous cluster.

    Scenario specs describe mixed-hardware topologies as a list of node
    classes (e.g. a "modern" rack and a "legacy" rack); node ids encode
    the class name (:meth:`node_ids`) for stable ordering and readable
    failure injection targets.

    The optional ``zone`` places every node of the class in a named
    network zone (see :mod:`repro.netmodel`): several classes may share a
    zone (e.g. two hardware generations in the same edge site).  When
    omitted, the class name doubles as the zone -- exactly the id-prefix
    convention zone outages already use.
    """

    name: str
    count: int
    processors: int
    mhz_per_processor: Mhz
    memory_mb: Megabytes
    # New fields append after the seed ones so positional construction
    # of this public frozen dataclass keeps working.
    zone: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("node class name must be non-empty")
        if self.zone is not None and (
            not isinstance(self.zone, str) or not self.zone
        ):
            raise ConfigurationError(
                f"node class {self.name!r}: zone must be a non-empty string "
                f"or None"
            )
        if self.count < 1:
            raise ConfigurationError(f"node class {self.name!r}: count must be >= 1")
        if self.processors < 1:
            raise ConfigurationError(
                f"node class {self.name!r}: processors must be >= 1"
            )
        if self.mhz_per_processor <= 0:
            raise ConfigurationError(
                f"node class {self.name!r}: mhz_per_processor must be positive"
            )
        if self.memory_mb <= 0:
            raise ConfigurationError(
                f"node class {self.name!r}: memory_mb must be positive"
            )

    @property
    def cpu_capacity(self) -> Mhz:
        """Total CPU capacity contributed by this class."""
        return self.count * self.processors * self.mhz_per_processor

    def node_ids(self) -> list[str]:
        """Ids of this class's nodes: ``f"{name}-{i:03d}"``."""
        return [f"{self.name}-{i:03d}" for i in range(self.count)]


def cluster_from_classes(classes: Sequence[NodeClass]) -> Cluster:
    """Build a heterogeneous cluster from named node classes.

    Each class contributes ``count`` identical nodes with ids from
    :meth:`NodeClass.node_ids`.  Class names must be unique.
    """
    classes = tuple(classes)
    if not classes:
        raise ConfigurationError("node classes must be non-empty")
    names = [c.name for c in classes]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate node class names in {names}")
    return Cluster(
        NodeSpec(
            node_id=node_id,
            processors=cls.processors,
            mhz_per_processor=cls.mhz_per_processor,
            memory_mb=cls.memory_mb,
        )
        for cls in classes
        for node_id in cls.node_ids()
    )
