"""Baseline placement policies the paper's controller is compared against.

* :class:`StaticPartitionPolicy` -- fixed node split (pre-virtualization
  consolidation practice; the paper's reference [6]).
* :class:`FcfsSharedPolicy` -- shared cluster, jobs first-come
  first-served at full speed, web gets the per-node residue.
* :class:`EdfSharedPolicy` -- shared cluster, earliest-deadline-first job
  admission.
* :class:`TxPriorityPolicy` -- web demand always satisfied first, jobs
  share the leftovers.

All run under the identical simulator/enactment substrate as the
utility-driven controller (:mod:`repro.experiments.runner`).
"""

from .base import BaselinePolicy
from .edf_scheduler import EdfSharedPolicy
from .fcfs import FcfsSharedPolicy
from .registry import (
    PolicyFactory,
    available_policies,
    get_policy,
)
from .static_partition import StaticPartitionPolicy, merge_solutions
from .tx_priority import TxPriorityPolicy

__all__ = [
    "BaselinePolicy",
    "StaticPartitionPolicy",
    "FcfsSharedPolicy",
    "EdfSharedPolicy",
    "TxPriorityPolicy",
    "merge_solutions",
    "PolicyFactory",
    "get_policy",
    "available_policies",
]
