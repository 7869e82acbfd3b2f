"""Placement matrices.

A :class:`Placement` is the controller's complete answer for one control
cycle: which VMs run on which nodes and how much CPU each is granted.
Entries are self-contained (they carry the VM's memory footprint and
workload kind) so a placement can be validated and diffed without access
to the jobs and apps that own the VMs.  A job's VM is placed under its
``Job.vm_id``, a web instance under :func:`instance_vm_id`.

Placements are *value objects*: the solver builds a new one each cycle and
the actions planner (:mod:`repro.core.actions_planner`) diffs it against
the previous one.  The experiment runner then adopts the new one as its
incumbent and removes entries from it as jobs complete and nodes fail.

The structure is **indexed by node**: alongside the VM-id map it maintains
per-node entry tables and running CPU/memory aggregates, updated on every
:meth:`Placement.add` / :meth:`Placement.remove` / :meth:`Placement.update_cpu`.
That turns :meth:`entries_on`, :meth:`cpu_used`, :meth:`memory_used`,
:meth:`by_node` and :meth:`validate` -- the queries on the solver's, the
actions planner's, the runner's and the recorder's hot paths -- from
full-table scans into O(per-node) lookups.  The aggregates are maintained
incrementally (sums drift by float round-off only, orders of magnitude
below the validation tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Container, Iterable, Iterator, Mapping, Optional

from ..errors import PlacementError
from ..types import Megabytes, Mhz, WorkloadKind
from .cluster import Cluster
from .node import NodeSpec

#: CPU/memory slack tolerated by :meth:`Placement.violation`, to absorb
#: float round-off.
_EPS = 1e-6


def instance_vm_id(app_id: str, node_id: str) -> str:
    """The stable placement id ``tx:<app>@<node>`` of a web instance."""
    return f"tx:{app_id}@{node_id}"


def parse_instance_vm_id(vm_id: str) -> Optional[tuple[str, str]]:
    """``(app_id, node_id)`` of a web-instance id, ``None`` for any other id."""
    if not vm_id.startswith("tx:") or "@" not in vm_id:
        return None
    app_id, node_id = vm_id[3:].split("@", 1)
    return app_id, node_id


@dataclass(slots=True, unsafe_hash=True)
class PlacementEntry:
    """One VM's assignment: where it runs and what it is granted.

    Immutable by convention (``Placement`` replaces entries, never
    mutates them -- see :meth:`with_cpu`); not ``frozen=True`` because
    the solver constructs one to two entries per placed VM every control
    cycle and frozen-dataclass construction costs ~2.3x
    (``object.__setattr__`` per field) on that hot path.
    ``unsafe_hash`` keeps the field-based hash a frozen dataclass would
    have generated, consistent with ``__eq__``.
    """

    vm_id: str
    node_id: str
    cpu_mhz: Mhz
    memory_mb: Megabytes
    kind: WorkloadKind

    def __post_init__(self) -> None:
        if self.cpu_mhz < 0:
            raise PlacementError(f"vm {self.vm_id}: negative CPU grant")
        if self.memory_mb <= 0:
            raise PlacementError(f"vm {self.vm_id}: non-positive memory footprint")

    @classmethod
    def trusted(
        cls,
        vm_id: str,
        node_id: str,
        cpu_mhz: Mhz,
        memory_mb: Megabytes,
        kind: WorkloadKind,
    ) -> "PlacementEntry":
        """Validation-free constructor for fields checked already.

        :meth:`with_cpu` rebuilds an entry per boosted job every control
        cycle from fields its source entry validated; re-checking them is
        pure overhead.  External callers must use the normal constructor:
        this one skips ``__post_init__``.
        """
        self = object.__new__(cls)
        self.vm_id = vm_id
        self.node_id = node_id
        self.cpu_mhz = cpu_mhz
        self.memory_mb = memory_mb
        self.kind = kind
        return self

    def with_cpu(self, cpu_mhz: Mhz) -> "PlacementEntry":
        """Copy of this entry with a different CPU grant.

        Trusted construction: this runs once per boosted job per control
        cycle, and every field but the grant was validated when ``self``
        was built (the water-fill grants it receives are non-negative).
        """
        return PlacementEntry.trusted(
            self.vm_id, self.node_id, cpu_mhz, self.memory_mb, self.kind
        )


class Placement:
    """Immutable-by-convention map of VM id -> :class:`PlacementEntry`."""

    __slots__ = ("_entries", "_node_entries", "_node_cpu", "_node_mem")

    def __init__(self, entries: Iterable[PlacementEntry] = ()) -> None:
        self._entries: dict[str, PlacementEntry] = {}
        #: node_id -> (vm_id -> entry), in insertion order per node.
        self._node_entries: dict[str, dict[str, PlacementEntry]] = {}
        #: node_id -> running CPU / memory totals (keys mirror _node_entries).
        self._node_cpu: dict[str, float] = {}
        self._node_mem: dict[str, float] = {}
        for entry in entries:
            if entry.vm_id in self._entries:
                raise PlacementError(f"vm {entry.vm_id} placed twice")
            self._insert(entry)

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[PlacementEntry]:
        return iter(self._entries.values())

    def __contains__(self, vm_id: str) -> bool:
        return vm_id in self._entries

    def get(self, vm_id: str) -> Optional[PlacementEntry]:
        """Entry for ``vm_id`` or ``None`` when not placed."""
        return self._entries.get(vm_id)

    def by_vm(self) -> Mapping[str, PlacementEntry]:
        """Live read-only view of VM id -> entry.

        The action planner diffs two placements through this every control
        cycle, in one pass and without a method call per VM.
        """
        return MappingProxyType(self._entries)

    def entry(self, vm_id: str) -> PlacementEntry:
        """Entry for ``vm_id``; raises :class:`PlacementError` if absent."""
        try:
            return self._entries[vm_id]
        except KeyError:
            raise PlacementError(f"vm {vm_id!r} is not placed") from None

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def copy(self) -> "Placement":
        """Shallow copy (entries are frozen, so this is a safe snapshot)."""
        clone = Placement.__new__(Placement)
        clone._entries = dict(self._entries)
        clone._node_entries = {
            node_id: dict(entries) for node_id, entries in self._node_entries.items()
        }
        clone._node_cpu = dict(self._node_cpu)
        clone._node_mem = dict(self._node_mem)
        return clone

    def add(self, entry: PlacementEntry) -> None:
        """Insert a new entry; the VM must not already be placed."""
        if entry.vm_id in self._entries:
            raise PlacementError(f"vm {entry.vm_id} already placed")
        self._insert(entry)

    def place(
        self,
        vm_id: str,
        node_id: str,
        cpu_mhz: Mhz,
        memory_mb: Megabytes,
        kind: WorkloadKind,
    ) -> None:
        """:meth:`add` a new entry built from these fields, in one call.

        Checks the fields as the :class:`PlacementEntry` constructor does,
        with the same errors, and builds the entry without a constructor
        call: the placement solver records every placed VM through this,
        thousands per control cycle.
        """
        if cpu_mhz < 0:
            raise PlacementError(f"vm {vm_id}: negative CPU grant")
        if memory_mb <= 0:
            raise PlacementError(f"vm {vm_id}: non-positive memory footprint")
        if vm_id in self._entries:
            raise PlacementError(f"vm {vm_id} already placed")
        entry = object.__new__(PlacementEntry)
        entry.vm_id = vm_id
        entry.node_id = node_id
        entry.cpu_mhz = cpu_mhz
        entry.memory_mb = memory_mb
        entry.kind = kind
        self._insert(entry)

    def remove(self, vm_id: str) -> PlacementEntry:
        """Remove and return the entry for ``vm_id``."""
        try:
            entry = self._entries.pop(vm_id)
        except KeyError:
            raise PlacementError(f"vm {vm_id!r} is not placed") from None
        node_id = entry.node_id
        node_entries = self._node_entries[node_id]
        del node_entries[vm_id]
        if node_entries:
            self._node_cpu[node_id] -= entry.cpu_mhz
            self._node_mem[node_id] -= entry.memory_mb
        else:
            # Dropping emptied nodes keeps aggregates drift-free across
            # long churn and keeps by_node() free of empty groups.
            del self._node_entries[node_id]
            del self._node_cpu[node_id]
            del self._node_mem[node_id]
        return entry

    def update_cpu(self, vm_id: str, cpu_mhz: Mhz) -> None:
        """Replace the CPU grant of an existing entry."""
        if not cpu_mhz >= 0:  # also rejects NaN
            raise PlacementError(f"vm {vm_id}: negative CPU grant")
        old = self.entry(vm_id)
        new = old.with_cpu(cpu_mhz)
        self._entries[vm_id] = new
        self._node_entries[old.node_id][vm_id] = new
        self._node_cpu[old.node_id] += new.cpu_mhz - old.cpu_mhz

    def _insert(self, entry: PlacementEntry) -> None:
        self._entries[entry.vm_id] = entry
        node_entries = self._node_entries.get(entry.node_id)
        if node_entries is None:
            self._node_entries[entry.node_id] = {entry.vm_id: entry}
            self._node_cpu[entry.node_id] = entry.cpu_mhz
            self._node_mem[entry.node_id] = entry.memory_mb
        else:
            node_entries[entry.vm_id] = entry
            self._node_cpu[entry.node_id] += entry.cpu_mhz
            self._node_mem[entry.node_id] += entry.memory_mb

    # ------------------------------------------------------------------
    # Per-node aggregation
    # ------------------------------------------------------------------
    def entries_on(self, node_id: str) -> list[PlacementEntry]:
        """All entries hosted on ``node_id``."""
        node_entries = self._node_entries.get(node_id)
        return list(node_entries.values()) if node_entries else []

    def cpu_used(self, node_id: str) -> Mhz:
        """Total CPU granted on ``node_id``."""
        return self._node_cpu.get(node_id, 0.0)

    def memory_used(self, node_id: str) -> Megabytes:
        """Total memory occupied on ``node_id``."""
        return self._node_mem.get(node_id, 0.0)

    def total_cpu(self, kind: Optional[WorkloadKind] = None) -> Mhz:
        """Total CPU granted, optionally restricted to one workload kind."""
        if kind is None:
            return sum(self._node_cpu.values())
        return sum(e.cpu_mhz for e in self._entries.values() if e.kind is kind)

    def by_node(self) -> Mapping[str, list[PlacementEntry]]:
        """Entries grouped by hosting node."""
        return {
            node_id: list(entries.values())
            for node_id, entries in self._node_entries.items()
        }

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def violation(
        self, nodes: Mapping[str, NodeSpec], failed: Container[str] = ()
    ) -> Optional[str]:
        """Why this placement does not fit ``nodes``, or ``None`` if it fits.

        ``nodes`` maps each live node's id to its (brownout-derated)
        spec.  A hosting node missing from it is reported as failed when
        listed in ``failed``, as unknown otherwise; a live node must hold
        its CPU and memory within a float-round-off tolerance, and a NaN
        aggregate counts as over it.  Returns the first violation found,
        in O(nodes used).
        """
        for node_id, cpu in self._node_cpu.items():
            node = nodes.get(node_id)
            if node is None:
                state = "failed" if node_id in failed else "unknown"
                return f"placement uses {state} node {node_id!r}"
            if not cpu <= node.cpu_capacity * (1 + _EPS) + _EPS:
                return (
                    f"node {node_id!r} CPU overcommitted: "
                    f"{cpu:.1f} > {node.cpu_capacity:.1f} MHz"
                )
            memory = self._node_mem[node_id]
            if not memory <= node.memory_mb * (1 + _EPS) + _EPS:
                return (
                    f"node {node_id!r} memory overcommitted: "
                    f"{memory:.1f} > {node.memory_mb:.1f} MB"
                )
        return None

    def validate(self, cluster: Cluster) -> None:
        """Check feasibility against ``cluster``'s live nodes.

        Raises
        ------
        PlacementError
            With the first :meth:`violation` found.
        """
        live = {
            node_id: cluster.node(node_id)
            for node_id in self._node_entries
            if cluster.is_active(node_id)
        }
        violation = self.violation(live, cluster.failed_node_ids)
        if violation is not None:
            raise PlacementError(violation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Placement({len(self._entries)} VMs, {self.total_cpu():.0f} MHz)"
