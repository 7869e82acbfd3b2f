"""Diffing placements into executable action plans.

The solver produces a *desired* placement; this module compares it with
the incumbent placement and the lifecycle phases of the VMs that enter
it, and emits the ordered list of :mod:`repro.cluster.actions` that
takes the data center from one to the other.  Resource-freeing actions (stops, suspends) come
first so that the subsequent starts and resumes land on nodes whose
capacity has already been released within the same control cycle.  The
CPU share changes of VMs that stay put come last, as one
:class:`~repro.cluster.actions.CpuGrants` record.
"""

from __future__ import annotations

from typing import Iterable

from ..cluster.actions import (
    CpuGrants,
    MigrateVm,
    PlacementAction,
    ResumeVm,
    StartVm,
    StopVm,
    SuspendVm,
)
from ..cluster.placement import Placement
from ..errors import PlacementError
from ..types import WorkloadKind
from ..workloads.jobs import Job, JobPhase

#: CPU adjustments smaller than this (MHz) are not worth an action.
_ADJUST_EPS = 1e-6


def plan_actions(
    previous: Placement,
    desired: Placement,
    jobs: Iterable[Job],
) -> list[PlacementAction]:
    """Compute the actions transforming ``previous`` into ``desired``.

    Parameters
    ----------
    previous:
        The placement currently in force.
    desired:
        The solver's new placement.
    jobs:
        The jobs whose VMs either placement may hold.  A job's phase is
        read only when its VM enters the desired placement, to tell a
        first ``Start`` from a ``Resume`` of a suspended VM.  A VM that
        enters with no job (a new web instance) starts.

    Returns
    -------
    list
        Actions ordered: stops, suspends, migrations, resumes, starts,
        then one :class:`CpuGrants` record of the CPU adjustments (none
        when no share changes), in VM id order.

    Raises
    ------
    PlacementError
        If a VM enters the desired placement in a phase other than
        PENDING or SUSPENDED (e.g. a completed or cancelled job).
    """
    stops: list[PlacementAction] = []
    suspends: list[PlacementAction] = []
    migrations: list[PlacementAction] = []
    resumes: list[PlacementAction] = []
    starts: list[PlacementAction] = []
    grant_vms: list[str] = []
    grant_mhz: list[float] = []
    old_entries = previous.by_vm()
    new_entries = desired.by_vm()
    jobs_by_vm = {job.vm_id: job for job in jobs}

    # VMs leaving the placement.
    for vm_id in sorted(old_entries.keys() - new_entries.keys()):
        if old_entries[vm_id].kind is WorkloadKind.LONG_RUNNING:
            # A job removed from the placement is checkpointed, not killed;
            # completed jobs are removed by the runner outside the planner.
            suspends.append(SuspendVm(vm_id))
        else:
            stops.append(StopVm(vm_id))

    # VMs entering or changing within the placement, in one id-ordered
    # pass over the desired entries.
    for vm_id in sorted(new_entries):
        new = new_entries[vm_id]
        if vm_id in old_entries:
            old = old_entries[vm_id]
            if old.node_id != new.node_id:
                migrations.append(
                    MigrateVm(vm_id, old.node_id, new.node_id, new.cpu_mhz)
                )
            elif abs(old.cpu_mhz - new.cpu_mhz) > _ADJUST_EPS:
                grant_vms.append(vm_id)
                grant_mhz.append(new.cpu_mhz)
            continue
        job = jobs_by_vm.get(vm_id)
        state = JobPhase.PENDING if job is None else job.phase
        if state is JobPhase.SUSPENDED:
            resumes.append(ResumeVm(vm_id, new.node_id, new.cpu_mhz))
        elif state is JobPhase.PENDING:
            starts.append(StartVm(vm_id, new.node_id, new.cpu_mhz))
        else:
            raise PlacementError(
                f"vm {vm_id}: desired placement requires state PENDING or "
                f"SUSPENDED, found {state}"
            )

    actions = [*stops, *suspends, *migrations, *resumes, *starts]
    if grant_vms:
        actions.append(CpuGrants(tuple(grant_vms), tuple(grant_mhz)))
    return actions
