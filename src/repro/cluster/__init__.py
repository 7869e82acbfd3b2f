"""Virtualized data-center substrate.

Physical nodes (:class:`NodeSpec`, and :class:`NodeTable` for one live
set of them as columns), the managed :class:`Cluster`,
placement matrices (:class:`Placement`) with feasibility validation,
placement-change actions with costs (:class:`ActionCosts`), and topology
builders for homogeneous and class-based heterogeneous clusters.

A VM has no record of its own here: a job's VM is its
:class:`~repro.workloads.jobs.Job` (``vm_id``, ``phase``, ``node_id``),
and a web instance's VM is its node's CPU grant in
:class:`~repro.workloads.transactional.TransactionalApp`, placed under
``tx:<app>@<node>`` (:func:`~repro.cluster.placement.instance_vm_id`).
"""

from .actions import (
    DISRUPTIVE_ACTIONS,
    ActionCosts,
    ActionLog,
    CpuGrants,
    MigrateVm,
    PlacementAction,
    ResumeVm,
    StartVm,
    StopVm,
    SuspendVm,
)
from .cluster import Cluster
from .node import NodeSpec, NodeTable
from .placement import Placement, PlacementEntry
from .topology import (
    PAPER_MHZ_PER_PROCESSOR,
    PAPER_NODE_MEMORY_MB,
    PAPER_PROCESSORS,
    NodeClass,
    cluster_from_classes,
    homogeneous_cluster,
)

__all__ = [
    "NodeSpec",
    "NodeTable",
    "Cluster",
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
    "CpuGrants",
    "DISRUPTIVE_ACTIONS",
    "homogeneous_cluster",
    "NodeClass",
    "cluster_from_classes",
    "PAPER_PROCESSORS",
    "PAPER_MHZ_PER_PROCESSOR",
    "PAPER_NODE_MEMORY_MB",
]
