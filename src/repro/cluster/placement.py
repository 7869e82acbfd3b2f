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

The structure is **rows of columns**: one row per VM in insertion order
(VM id, node, CPU grant, memory, kind), with a VM-id -> row index.  A
removal leaves a hole; a VM placed again gets a new row at the end, as a
re-inserted dict key would.  The solver appends whole batches with
:meth:`Placement.place_many`, the planner diffs two placements' columns
row by row (:meth:`Placement.columns`), and the per-node CPU and memory
sums behind :meth:`cpu_used`, :meth:`memory_used` and :meth:`violation`
are one ``np.bincount`` pass over the live rows, in row order, the first
time they are read after a change: fresh left-to-right sums.
:meth:`violation` checks them against a
:class:`~repro.cluster.node.NodeTable`'s fit columns in one vector
compare.  :class:`PlacementEntry` values are made on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, repeat
from operator import le, lt
from types import MappingProxyType
from typing import Container, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from ..errors import PlacementError
from ..types import Megabytes, Mhz, WorkloadKind
from .cluster import Cluster
from .node import NodeSpec, NodeTable


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

    A value made on request from a :class:`Placement`'s row, immutable by
    convention; not ``frozen=True`` because every read of a placement
    builds one and frozen-dataclass construction costs ~2.3x
    (``object.__setattr__`` per field).  ``unsafe_hash`` keeps the
    field-based hash a frozen dataclass would have generated, consistent
    with ``__eq__``.
    """

    vm_id: str
    node_id: str
    cpu_mhz: Mhz
    memory_mb: Megabytes
    kind: WorkloadKind

    def __post_init__(self) -> None:
        if not self.cpu_mhz >= 0:  # also rejects NaN
            raise PlacementError(f"vm {self.vm_id}: negative CPU grant")
        if not self.memory_mb > 0:
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

        A placement makes an entry from its columns on every read, whose
        fields its insert paths checked; re-checking them is pure
        overhead.  External callers must use the normal constructor: this
        one skips ``__post_init__``.
        """
        self = object.__new__(cls)
        self.vm_id = vm_id
        self.node_id = node_id
        self.cpu_mhz = cpu_mhz
        self.memory_mb = memory_mb
        self.kind = kind
        return self


class Placement:
    """Immutable-by-convention map of VM id -> :class:`PlacementEntry`,
    stored as rows of columns."""

    __slots__ = ("_rows", "_vm", "_node", "_cpu", "_mem", "_kind", "_sums")

    def __init__(self, entries: Iterable[PlacementEntry] = ()) -> None:
        #: VM id -> row, in row order; a removed VM's row is a hole.
        self._rows: dict[str, int] = {}
        self._vm: list[str] = []
        self._node: list[str] = []
        self._cpu: list[Mhz] = []
        self._mem: list[Megabytes] = []
        self._kind: list[WorkloadKind] = []
        #: (node -> its number, CPU sums, memory sums), None after a change.
        self._sums: Optional[tuple[dict[str, int], np.ndarray, np.ndarray]] = None
        for e in entries:
            if e.vm_id in self._rows:
                raise PlacementError(f"vm {e.vm_id} placed twice")
            self._append(e.vm_id, e.node_id, e.cpu_mhz, e.memory_mb, e.kind)

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[PlacementEntry]:
        # Entries are made up front: a removal may renumber the rows.
        return iter([self._entry(row) for row in self._rows.values()])

    def __contains__(self, vm_id: str) -> bool:
        return vm_id in self._rows

    def get(self, vm_id: str) -> Optional[PlacementEntry]:
        """Entry for ``vm_id`` or ``None`` when not placed."""
        row = self._rows.get(vm_id)
        return None if row is None else self._entry(row)

    def by_vm(self) -> Mapping[str, PlacementEntry]:
        """Read-only VM id -> entry map, in row order (a snapshot)."""
        return MappingProxyType(
            {vm_id: self._entry(row) for vm_id, row in self._rows.items()}
        )

    def entry(self, vm_id: str) -> PlacementEntry:
        """Entry for ``vm_id``; raises :class:`PlacementError` if absent."""
        return self._entry(self._row(vm_id))

    def columns(
        self,
    ) -> tuple[Mapping[str, int], Sequence[str], Sequence[Mhz], Sequence[WorkloadKind]]:
        """``(rows, nodes, cpu, kinds)``: the raw columns.

        ``rows`` maps each placed VM id to its row, in row order; row
        ``r`` of each column belongs to it.  Rows missing from ``rows``
        are holes left by removals.  The actions planner diffs two
        placements through this, without an entry per VM.  The caller
        must not modify them: they are the placement's own (a read-only
        proxy would make every lookup a method call).
        """
        return self._rows, self._node, self._cpu, self._kind

    def _row(self, vm_id: str) -> int:
        try:
            return self._rows[vm_id]
        except KeyError:
            raise PlacementError(f"vm {vm_id!r} is not placed") from None

    def _entry(self, row: int) -> PlacementEntry:
        return PlacementEntry.trusted(
            self._vm[row], self._node[row], self._cpu[row], self._mem[row],
            self._kind[row],
        )

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def copy(self) -> "Placement":
        """Independent copy (entries are values, so this is a safe snapshot)."""
        clone = Placement.__new__(Placement)
        clone._rows = dict(self._rows)
        clone._vm = list(self._vm)
        clone._node = list(self._node)
        clone._cpu = list(self._cpu)
        clone._mem = list(self._mem)
        clone._kind = list(self._kind)
        clone._sums = self._sums  # never mutated, only replaced
        return clone

    def add(self, entry: PlacementEntry) -> None:
        """Insert a new entry; the VM must not already be placed."""
        if entry.vm_id in self._rows:
            raise PlacementError(f"vm {entry.vm_id} already placed")
        self._append(
            entry.vm_id, entry.node_id, entry.cpu_mhz, entry.memory_mb, entry.kind
        )

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
        with the same errors, without building an entry.
        """
        if not cpu_mhz >= 0:  # also rejects NaN
            raise PlacementError(f"vm {vm_id}: negative CPU grant")
        if not memory_mb > 0:
            raise PlacementError(f"vm {vm_id}: non-positive memory footprint")
        if vm_id in self._rows:
            raise PlacementError(f"vm {vm_id} already placed")
        self._append(vm_id, node_id, cpu_mhz, memory_mb, kind)

    def place_many(
        self,
        vm_ids: Sequence[str],
        node_ids: Sequence[str],
        cpu_mhz: Sequence[Mhz],
        memory_mb: Sequence[Megabytes],
        kind: WorkloadKind,
    ) -> None:
        """:meth:`place` each row of these columns, in order, in one call.

        Raises what the first failing :meth:`place` call would, and then
        places none of the rows.
        """
        count = len(vm_ids)
        start = len(self._vm)
        new_rows = dict(zip(vm_ids, range(start, start + count)))
        if not (
            len(new_rows) == count
            and self._rows.keys().isdisjoint(new_rows)
            and all(map(le, repeat(0.0), cpu_mhz))  # NaN fails too
            and all(map(lt, repeat(0.0), memory_mb))
        ):
            # The first failing row, with place()'s error for it.
            probe = Placement()
            probe._rows = dict(self._rows)
            for row in range(count):
                probe.place(vm_ids[row], node_ids[row], cpu_mhz[row], memory_mb[row], kind)
        self._rows.update(new_rows)
        self._vm.extend(vm_ids)
        self._node.extend(node_ids)
        self._cpu.extend(cpu_mhz)
        self._mem.extend(memory_mb)
        self._kind.extend(repeat(kind, count))
        self._sums = None

    def remove(self, vm_id: str) -> PlacementEntry:
        """Remove and return the entry for ``vm_id``."""
        row = self._row(vm_id)
        del self._rows[vm_id]
        self._sums = None
        entry = self._entry(row)
        if len(self._vm) > 2 * len(self._rows) + 64:
            self._compact()
        return entry

    def update_cpu(self, vm_id: str, cpu_mhz: Mhz) -> None:
        """Replace the CPU grant of an existing entry."""
        if not cpu_mhz >= 0:  # also rejects NaN
            raise PlacementError(f"vm {vm_id}: negative CPU grant")
        self._cpu[self._row(vm_id)] = cpu_mhz
        self._sums = None

    def _append(
        self,
        vm_id: str,
        node_id: str,
        cpu_mhz: Mhz,
        memory_mb: Megabytes,
        kind: WorkloadKind,
    ) -> None:
        self._rows[vm_id] = len(self._vm)
        self._vm.append(vm_id)
        self._node.append(node_id)
        self._cpu.append(cpu_mhz)
        self._mem.append(memory_mb)
        self._kind.append(kind)
        self._sums = None

    def _compact(self) -> None:
        """Drop the holes, keeping the rows' order."""
        live = list(self._rows.values())
        for name in ("_vm", "_node", "_cpu", "_mem", "_kind"):
            setattr(self, name, list(map(getattr(self, name).__getitem__, live)))
        self._rows = dict(zip(self._vm, range(len(live))))

    # ------------------------------------------------------------------
    # Per-node aggregation
    # ------------------------------------------------------------------
    def _node_sums(self) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
        """Per-node CPU and memory sums of the live rows, in row order.

        The hosting nodes are numbered in the order of their first row,
        and ``np.bincount`` adds each node's rows in row order, starting
        from 0.0: bit for bit Python's left-to-right ``sum`` over them.
        Returns ``(node -> number, CPU sums, memory sums)``, the sums
        indexed by number.
        """
        sums = self._sums
        if sums is None:
            nodes, cpu, mem = self._node, self._cpu, self._mem
            if len(self._rows) < len(nodes):  # holes
                live = list(self._rows.values())
                nodes = [nodes[row] for row in live]
                cpu = [cpu[row] for row in live]
                mem = [mem[row] for row in live]
            number = dict(zip(dict.fromkeys(nodes), count()))
            codes = np.fromiter(map(number.__getitem__, nodes), np.intp, len(nodes))
            sums = self._sums = (
                number,
                np.bincount(codes, weights=cpu, minlength=len(number)),
                np.bincount(codes, weights=mem, minlength=len(number)),
            )
        return sums

    def entries_on(self, node_id: str) -> list[PlacementEntry]:
        """All entries hosted on ``node_id``, in row order (a scan of the rows)."""
        nodes = self._node
        return [self._entry(row) for row in self._rows.values() if nodes[row] == node_id]

    def cpu_used(self, node_id: str) -> Mhz:
        """Total CPU granted on ``node_id``."""
        number, cpu, _ = self._node_sums()
        i = number.get(node_id)
        return 0.0 if i is None else cpu.item(i)

    def memory_used(self, node_id: str) -> Megabytes:
        """Total memory occupied on ``node_id``."""
        number, _, mem = self._node_sums()
        i = number.get(node_id)
        return 0.0 if i is None else mem.item(i)

    def total_cpu(self, kind: Optional[WorkloadKind] = None) -> Mhz:
        """Total CPU granted, optionally restricted to one workload kind."""
        cpu, kinds = self._cpu, self._kind
        return sum(
            cpu[row]
            for row in self._rows.values()
            if kind is None or kinds[row] is kind
        )

    def by_node(self) -> Mapping[str, list[PlacementEntry]]:
        """Entries grouped by hosting node, nodes in order of first row."""
        grouped: dict[str, list[PlacementEntry]] = {}
        for row in self._rows.values():
            grouped.setdefault(self._node[row], []).append(self._entry(row))
        return grouped

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def violation(
        self, nodes: Iterable[NodeSpec], failed: Container[str] = ()
    ) -> Optional[str]:
        """Why this placement does not fit ``nodes``, or ``None`` if it fits.

        ``nodes`` are the live (brownout-derated) node specs, best as the
        cluster's :class:`~repro.cluster.node.NodeTable`; any other
        sequence is converted with :meth:`NodeTable.of`.  A hosting node
        missing from them is reported as failed when listed in
        ``failed``, as unknown otherwise; a live node must hold its CPU
        and memory within a float-round-off tolerance, and a NaN sum
        counts as over it.  The per-node sums are checked against the
        table's fit columns (:data:`~repro.cluster.node.FIT_TOLERANCE`)
        in one vector compare; the message names the first violating node
        in the order of first rows, and for it the first of these checks
        that fails.
        """
        table = NodeTable.of(nodes)
        number, cpu_sums, mem_sums = self._node_sums()
        # A node the table does not have is at -1: the fit columns' NaN.
        at = np.fromiter(map(table.pos.get, number, repeat(-1)), np.intp, len(number))
        cpu_fits = cpu_sums <= table.cpu_fit[at]
        fits = cpu_fits & (mem_sums <= table.mem_fit[at])
        if fits.all():
            return None
        first = int(fits.argmin())
        node_id = list(number)[first]
        node = table.by_id.get(node_id)
        if node is None:
            state = "failed" if node_id in failed else "unknown"
            return f"placement uses {state} node {node_id!r}"
        if not cpu_fits[first]:
            return (
                f"node {node_id!r} CPU overcommitted: "
                f"{cpu_sums.item(first):.1f} > {node.cpu_capacity:.1f} MHz"
            )
        return (
            f"node {node_id!r} memory overcommitted: "
            f"{mem_sums.item(first):.1f} > {node.memory_mb:.1f} MB"
        )

    def validate(self, cluster: Cluster) -> None:
        """Check feasibility against ``cluster``'s live nodes (its
        :attr:`~repro.cluster.cluster.Cluster.node_table`).

        Raises
        ------
        PlacementError
            With the first :meth:`violation` found.
        """
        violation = self.violation(cluster.node_table, cluster.failed_node_ids)
        if violation is not None:
            raise PlacementError(violation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Placement({len(self._rows)} VMs, {self.total_cpu():.0f} MHz)"
