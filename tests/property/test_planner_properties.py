"""Property-based test for the actions planner.

The defining invariant: *replaying* the planned actions against the
previous placement reconstructs the desired placement exactly -- no VM
left behind, none duplicated, every grant correct.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CpuGrants,
    MigrateVm,
    Placement,
    PlacementEntry,
    ResumeVm,
    StartVm,
    StopVm,
    SuspendVm,
)
from repro.core import plan_actions
from repro.types import WorkloadKind
from repro.workloads import JobPhase

from ..conftest import make_job_in

_NODES = ["n0", "n1", "n2"]


@st.composite
def placement_pairs(draw):
    """(previous placement, desired placement, the VMs' jobs)."""
    prev_entries = []
    desired_entries = []
    jobs = []
    for i in range(draw(st.integers(0, 12))):
        vm_id = f"vm-j{i}"
        kind = draw(st.sampled_from([WorkloadKind.TRANSACTIONAL,
                                     WorkloadKind.LONG_RUNNING]))
        in_prev = draw(st.booleans())
        in_desired = draw(st.booleans())
        mem = 100.0
        if in_prev:
            prev_entries.append(PlacementEntry(
                vm_id=vm_id, node_id=draw(st.sampled_from(_NODES)),
                cpu_mhz=draw(st.floats(0.0, 3000.0)), memory_mb=mem, kind=kind,
            ))
            phase = JobPhase.RUNNING
        else:
            phase = draw(st.sampled_from([JobPhase.PENDING, JobPhase.SUSPENDED]))
        jobs.append(make_job_in(phase, job_id=f"j{i}"))
        if in_desired:
            desired_entries.append(PlacementEntry(
                vm_id=vm_id, node_id=draw(st.sampled_from(_NODES)),
                cpu_mhz=draw(st.floats(0.0, 3000.0)), memory_mb=mem, kind=kind,
            ))
    return Placement(prev_entries), Placement(desired_entries), jobs


def replay(previous: Placement, actions) -> dict[str, tuple[str, float]]:
    """Apply the action list to a dict model of the data center."""
    state = {e.vm_id: (e.node_id, e.cpu_mhz) for e in previous}
    for action in actions:
        if isinstance(action, (StopVm, SuspendVm)):
            state.pop(action.vm_id)
        elif isinstance(action, (StartVm, ResumeVm)):
            assert action.vm_id not in state, "start/resume of a placed VM"
            state[action.vm_id] = (action.node_id, action.cpu_mhz)
        elif isinstance(action, MigrateVm):
            node, _ = state[action.vm_id]
            assert node == action.src_node_id, "migration from wrong host"
            state[action.vm_id] = (action.dst_node_id, action.cpu_mhz)
        elif isinstance(action, CpuGrants):
            assert action is actions[-1], "grants record before the last action"
            for vm_id, cpu_mhz in zip(action.vm_ids, action.cpu_mhz):
                node, _ = state[vm_id]
                state[vm_id] = (node, cpu_mhz)
    return state


@given(placement_pairs())
@settings(max_examples=250, deadline=None)
def test_replaying_actions_reconstructs_desired_placement(pair):
    previous, desired, jobs = pair
    actions = plan_actions(previous, desired, jobs)
    final = replay(previous, actions)
    want = {e.vm_id: (e.node_id, e.cpu_mhz) for e in desired}
    assert set(final) == set(want)
    for vm_id, (node, cpu) in want.items():
        got_node, got_cpu = final[vm_id]
        assert got_node == node
        assert math.isclose(got_cpu, cpu, rel_tol=0.0, abs_tol=1e-5)


@given(placement_pairs())
@settings(max_examples=250, deadline=None)
def test_no_action_for_unchanged_vms(pair):
    previous, desired, jobs = pair
    actions = plan_actions(previous, desired, jobs)
    touched = set()
    for action in actions:
        touched.update(
            action.vm_ids if isinstance(action, CpuGrants) else (action.vm_id,)
        )
    for entry in previous:
        new = desired.get(entry.vm_id)
        if (
            new is not None
            and new.node_id == entry.node_id
            and abs(new.cpu_mhz - entry.cpu_mhz) <= 1e-6
        ):
            assert entry.vm_id not in touched
