"""Placement-change actions and their costs.

The controller's decisions are enacted through a small vocabulary of
actions, mirroring the control mechanisms the paper leverages (start/stop
of application instances, job start, suspension, resumption, migration and
hypervisor share adjustment).  Each action type carries a cost model --
:class:`ActionCosts` -- charged by the experiment runner when the action is
applied: suspending loses the work done since the last checkpoint,
migrating pauses the VM for a transfer period, and so on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence, Union

from ..errors import ConfigurationError
from ..types import Mhz, Seconds


@dataclass(frozen=True, slots=True)
class StartVm:
    """Boot a PENDING VM on ``node_id`` with an initial CPU grant."""

    vm_id: str
    node_id: str
    cpu_mhz: Mhz


@dataclass(frozen=True, slots=True)
class StopVm:
    """Terminate a VM (web instance shut down, or job cancelled)."""

    vm_id: str


@dataclass(frozen=True, slots=True)
class SuspendVm:
    """Checkpoint a RUNNING VM to disk, releasing its CPU and memory."""

    vm_id: str


@dataclass(frozen=True, slots=True)
class ResumeVm:
    """Restore a SUSPENDED VM onto ``node_id`` (any node; the image moves)."""

    vm_id: str
    node_id: str
    cpu_mhz: Mhz


@dataclass(frozen=True, slots=True)
class MigrateVm:
    """Live-migrate a RUNNING VM from ``src_node_id`` to ``dst_node_id``."""

    vm_id: str
    src_node_id: str
    dst_node_id: str
    cpu_mhz: Mhz


@dataclass(frozen=True, slots=True)
class AdjustCpu:
    """Change the hypervisor CPU share of a RUNNING VM in place."""

    vm_id: str
    cpu_mhz: Mhz


#: Any placement-change action.
PlacementAction = Union[StartVm, StopVm, SuspendVm, ResumeVm, MigrateVm, AdjustCpu]

#: Actions that count against the controller's change budget.  Pure share
#: adjustments are free: the hypervisor applies them without disturbing the VM.
DISRUPTIVE_ACTIONS = (StartVm, StopVm, SuspendVm, ResumeVm, MigrateVm)


@dataclass(frozen=True, slots=True)
class ActionCosts:
    """Latency/overhead model for placement actions.

    All values are simulated seconds.

    Attributes
    ----------
    start_delay:
        Time between a start action and the VM doing useful work.
    suspend_checkpoint_loss:
        Work-time lost when suspending (progress since last checkpoint).
    resume_delay:
        Time to restore a suspended image before work continues.
    migrate_pause:
        Stop-and-copy pause during which a migrating VM makes no progress.
    """

    start_delay: Seconds = 10.0
    suspend_checkpoint_loss: Seconds = 30.0
    resume_delay: Seconds = 60.0
    migrate_pause: Seconds = 20.0

    def __post_init__(self) -> None:
        for name in ("start_delay", "suspend_checkpoint_loss", "resume_delay", "migrate_pause"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"ActionCosts.{name} must be non-negative")


@dataclass(slots=True)
class ActionLog:
    """Tally of actions applied over a run, for reporting and ablations."""

    starts: int = 0
    stops: int = 0
    suspensions: int = 0
    resumptions: int = 0
    migrations: int = 0
    adjustments: int = 0
    by_cycle: list[int] = field(default_factory=list)

    @property
    def disruptive_total(self) -> int:
        """All actions except pure CPU-share adjustments."""
        return (
            self.starts + self.stops + self.suspensions
            + self.resumptions + self.migrations
        )

    def count(self, actions: Sequence[PlacementAction]) -> None:
        """Add one control cycle's action list to the tally.

        Tallies by exact action type in one C-level pass (CPU adjustments
        are nearly every action of a cycle).
        """
        by_type = Counter(map(type, actions))
        self.adjustments += by_type[AdjustCpu]
        self.starts += by_type[StartVm]
        self.stops += by_type[StopVm]
        self.suspensions += by_type[SuspendVm]
        self.resumptions += by_type[ResumeVm]
        self.migrations += by_type[MigrateVm]
        self.by_cycle.append(sum(by_type[kind] for kind in DISRUPTIVE_ACTIONS))
