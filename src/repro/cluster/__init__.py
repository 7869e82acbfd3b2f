"""Virtualized data-center substrate.

Physical nodes (:class:`NodeSpec`), the managed :class:`Cluster`, the VM
lifecycle (:class:`VirtualMachine`), placement matrices
(:class:`Placement`) with feasibility validation, placement-change actions
with costs (:class:`ActionCosts`), and topology builders for homogeneous
and class-based heterogeneous clusters.
"""

from .actions import (
    DISRUPTIVE_ACTIONS,
    ActionCosts,
    ActionLog,
    AdjustCpu,
    MigrateVm,
    PlacementAction,
    ResumeVm,
    StartVm,
    StopVm,
    SuspendVm,
)
from .cluster import Cluster
from .node import NodeSpec
from .placement import Placement, PlacementEntry
from .topology import (
    PAPER_MHZ_PER_PROCESSOR,
    PAPER_NODE_MEMORY_MB,
    PAPER_PROCESSORS,
    NodeClass,
    cluster_from_classes,
    homogeneous_cluster,
)
from .vm import VirtualMachine, VmState

__all__ = [
    "NodeSpec",
    "Cluster",
    "VirtualMachine",
    "VmState",
    "Placement",
    "PlacementEntry",
    "ActionCosts",
    "ActionLog",
    "PlacementAction",
    "StartVm",
    "StopVm",
    "SuspendVm",
    "ResumeVm",
    "MigrateVm",
    "AdjustCpu",
    "DISRUPTIVE_ACTIONS",
    "homogeneous_cluster",
    "NodeClass",
    "cluster_from_classes",
    "PAPER_PROCESSORS",
    "PAPER_MHZ_PER_PROCESSOR",
    "PAPER_NODE_MEMORY_MB",
]
