"""Virtual-machine lifecycle model.

Every placeable entity -- a web-application instance or a long-running job
-- runs inside a virtual machine.  The VM is the unit the placement
controller manipulates: it can be started on a node, stopped, suspended to
disk (releasing both CPU and memory on its host, at the price of a resume
delay) and migrated between nodes.

The state machine::

        +---------+   start    +---------+
        | PENDING | ---------> | RUNNING | <--------+
        +---------+            +---------+          | resume
             |                  |   |   \\  migrate |
             | cancel   suspend |   |    +-------+  |
             v                  v   |stop        |  |
        +---------+       +-----------+          v  |
        | STOPPED | <---- | SUSPENDED | ----> (RUNNING on another node)
        +---------+ stop  +-----------+
"""

from __future__ import annotations

import enum
from typing import Optional

from ..errors import LifecycleError
from ..types import Megabytes, Mhz, WorkloadKind


class VmState(enum.Enum):
    """Lifecycle states of a virtual machine."""

    PENDING = "pending"
    RUNNING = "running"
    SUSPENDED = "suspended"
    STOPPED = "stopped"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def instance_vm_id(app_id: str, node_id: str) -> str:
    """The stable placement id ``tx:<app>@<node>`` of a web instance."""
    return f"tx:{app_id}@{node_id}"


def parse_instance_vm_id(vm_id: str) -> Optional[tuple[str, str]]:
    """``(app_id, node_id)`` of a web-instance id, ``None`` for any other id."""
    if not vm_id.startswith("tx:") or "@" not in vm_id:
        return None
    app_id, node_id = vm_id[3:].split("@", 1)
    return app_id, node_id


class VirtualMachine:
    """A placeable VM hosting one workload entity.

    Parameters
    ----------
    vm_id:
        Unique identifier.
    kind:
        Which workload type it belongs to.
    owner_id:
        Identifier of the owning application or job.
    memory_mb:
        Memory footprint the VM occupies on its host while RUNNING.
    """

    __slots__ = ("vm_id", "kind", "owner_id", "memory_mb", "_state", "_node_id",
                 "_cpu_allocation", "migrations", "suspensions")

    def __init__(
        self,
        vm_id: str,
        kind: WorkloadKind,
        owner_id: str,
        memory_mb: Megabytes,
    ) -> None:
        if memory_mb <= 0:
            raise LifecycleError(f"vm {vm_id}: memory must be positive")
        self.vm_id = vm_id
        self.kind = kind
        self.owner_id = owner_id
        self.memory_mb = memory_mb
        self._state = VmState.PENDING
        self._node_id: Optional[str] = None
        self._cpu_allocation: Mhz = 0.0
        self.migrations = 0
        self.suspensions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self) -> VmState:
        """Current lifecycle state."""
        return self._state

    @property
    def node_id(self) -> Optional[str]:
        """Host node id while RUNNING, else ``None``."""
        return self._node_id

    @property
    def cpu_allocation(self) -> Mhz:
        """CPU power currently granted by the hypervisor (0 unless RUNNING)."""
        return self._cpu_allocation

    @property
    def is_running(self) -> bool:
        """Whether the VM currently occupies a node."""
        return self._state is VmState.RUNNING

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def start(self, node_id: str, cpu_allocation: Mhz = 0.0) -> None:
        """PENDING/SUSPENDED -> RUNNING on ``node_id``."""
        if self._state not in (VmState.PENDING, VmState.SUSPENDED):
            raise LifecycleError(
                f"vm {self.vm_id}: cannot start from state {self._state}"
            )
        self._state = VmState.RUNNING
        self._node_id = node_id
        self.set_allocation(cpu_allocation)

    def suspend(self) -> None:
        """RUNNING -> SUSPENDED; releases the host's CPU and memory."""
        if self._state is not VmState.RUNNING:
            raise LifecycleError(
                f"vm {self.vm_id}: cannot suspend from state {self._state}"
            )
        self._state = VmState.SUSPENDED
        self._node_id = None
        self._cpu_allocation = 0.0
        self.suspensions += 1

    def migrate(self, node_id: str, cpu_allocation: Mhz = 0.0) -> None:
        """RUNNING on one node -> RUNNING on another node."""
        if self._state is not VmState.RUNNING:
            raise LifecycleError(
                f"vm {self.vm_id}: cannot migrate from state {self._state}"
            )
        if node_id == self._node_id:
            raise LifecycleError(f"vm {self.vm_id}: migration to its own host")
        self._node_id = node_id
        self.set_allocation(cpu_allocation)
        self.migrations += 1

    def stop(self) -> None:
        """Any live state -> STOPPED (terminal)."""
        if self._state is VmState.STOPPED:
            raise LifecycleError(f"vm {self.vm_id}: already stopped")
        self._state = VmState.STOPPED
        self._node_id = None
        self._cpu_allocation = 0.0

    def set_allocation(self, cpu_allocation: Mhz) -> None:
        """Adjust the hypervisor CPU grant (RUNNING only)."""
        if self._state is not VmState.RUNNING:
            raise LifecycleError(
                f"vm {self.vm_id}: cannot allocate CPU in state {self._state}"
            )
        if cpu_allocation < 0:
            raise LifecycleError(f"vm {self.vm_id}: negative allocation")
        self._cpu_allocation = float(cpu_allocation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = f"@{self._node_id}" if self._node_id else ""
        return (
            f"VM({self.vm_id}, {self.kind.value}, {self._state.value}{where}, "
            f"{self._cpu_allocation:.0f} MHz)"
        )
