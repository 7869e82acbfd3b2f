"""Diffing placements into executable action plans.

The solver produces a *desired* placement; this module compares it with
the incumbent placement and the current VM lifecycle phases and emits the
ordered list of :mod:`repro.cluster.actions` that takes the data center
from one to the other.  Resource-freeing actions (stops, suspends) come
first so that the subsequent starts and resumes land on nodes whose
capacity has already been released within the same control cycle.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..cluster.actions import (
    AdjustCpu,
    MigrateVm,
    PlacementAction,
    ResumeVm,
    StartVm,
    StopVm,
    SuspendVm,
)
from ..cluster.placement import Placement, instance_vm_id
from ..errors import PlacementError
from ..types import WorkloadKind
from ..workloads.jobs import Job, JobPhase

#: CPU adjustments smaller than this (MHz) are not worth an action.
_ADJUST_EPS = 1e-6


def vm_states_of(
    jobs: Iterable[Job], app_nodes: Mapping[str, Iterable[str]]
) -> dict[str, JobPhase]:
    """The ``vm_states`` map :func:`plan_actions` needs, from a policy's inputs.

    Each job's VM id with the job's current phase, and every running web
    instance (one per node in ``app_nodes``) as RUNNING.
    """
    states = {job.vm_id: job.phase for job in jobs}
    for app_id, nodes in app_nodes.items():
        for node_id in nodes:
            states[instance_vm_id(app_id, node_id)] = JobPhase.RUNNING
    return states


def plan_actions(
    previous: Placement,
    desired: Placement,
    vm_states: Mapping[str, JobPhase],
) -> list[PlacementAction]:
    """Compute the actions transforming ``previous`` into ``desired``.

    Parameters
    ----------
    previous:
        The placement currently in force.
    desired:
        The solver's new placement.
    vm_states:
        Lifecycle phase of every VM mentioned by either placement (a
        web instance is RUNNING); an absent VM counts as PENDING.  Needed
        to distinguish a first ``Start`` from a ``Resume`` of a suspended
        VM.

    Returns
    -------
    list
        Actions ordered: stops, suspends, migrations, resumes, starts,
        CPU adjustments.

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
    adjustments: list[PlacementAction] = []
    old_entries = previous.by_vm()
    new_entries = desired.by_vm()

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
                adjustments.append(AdjustCpu(vm_id, new.cpu_mhz))
            continue
        state = vm_states.get(vm_id, JobPhase.PENDING)
        if state is JobPhase.SUSPENDED:
            resumes.append(ResumeVm(vm_id, new.node_id, new.cpu_mhz))
        elif state is JobPhase.PENDING:
            starts.append(StartVm(vm_id, new.node_id, new.cpu_mhz))
        else:
            raise PlacementError(
                f"vm {vm_id}: desired placement requires state PENDING or "
                f"SUSPENDED, found {state}"
            )

    return [*stops, *suspends, *migrations, *resumes, *starts, *adjustments]
