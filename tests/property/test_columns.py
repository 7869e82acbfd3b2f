"""The column passes of the request, solver and placement layers equal
the per-object loops they replaced, bit for bit.

Each test keeps the replaced loop as its reference and compares every
float by ``float.hex`` (signed zeros count) and every order exactly:

* the retention pass (vector and scalar paths) against the per-node loop
  over ``JobRequest`` objects: placement entries, grants, residual CPU
  and memory, and the ``job_rates`` order;
* an app's share over its instances as array passes against the
  per-instance loops: grants, their order, the share left and the
  residual CPU;
* a placement's per-node sums against a left-to-right sum over its
  entries in row order, after random adds, bulk inserts, removals,
  re-insertions and CPU updates;
* the planner against the dict diff over placement entries;
* the controller's request columns against ``JobRequest`` rows built one
  per job, with job-id ranks across one table or several.
"""

import functools
import math
import operator
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.actions import (
    CpuGrants,
    MigrateVm,
    ResumeVm,
    StartVm,
    StopVm,
    SuspendVm,
)
from repro.cluster.node import NodeSpec
from repro.cluster.placement import Placement, PlacementEntry
from repro.core import JobRequest, plan_actions, water_fill
from repro.core import placement_solver
from repro.core.controller import UtilityDrivenController
from repro.core.job_scheduler import JobRequests
from repro.core.placement_solver import (
    PlacementSolution,
    PlacementSolver,
    _ClusterState,
    _JobState,
)
from repro.errors import ConfigurationError, PlacementError
from repro.perf.jobmodel import snapshot_jobs
from repro.types import WorkloadKind
from repro.workloads.jobs import (
    PENDING_CODE,
    RUNNING_CODE,
    SUSPENDED_CODE,
    Job,
    JobPhase,
    JobSpec,
    JobTable,
)

LONG, WEB = WorkloadKind.LONG_RUNNING, WorkloadKind.TRANSACTIONAL


def _hex(values):
    return [float(v).hex() for v in values]


def _left_sum(values):
    return functools.reduce(operator.add, values, 0.0)


# ----------------------------------------------------------------------
# Retention
# ----------------------------------------------------------------------
def _reference_retention(running, state):
    """The per-node loop retention was: ``running`` in job-id order."""
    by_node = {}
    for request in running:
        by_node.setdefault(request.current_node, []).append(request)
    cpu, mem, pos = state.cpu, state.mem, state.pos
    entries, rates = [], {}
    for node_id in sorted(by_node):
        i = pos[node_id]
        members = by_node[node_id]
        grants = [min(r.target_rate, r.speed_cap) for r in members]
        node_cpu = cpu[i]
        if not sum(grants) <= node_cpu:
            grants = water_fill(grants, node_cpu)
        node_mem = mem[i]
        for request, grant in zip(members, grants):
            node_mem -= request.memory_mb
            node_cpu -= grant
            if grant < 0.0:
                grant = 0.0
            entries.append((request.vm_id, node_id, grant, request.memory_mb))
            rates[request.job_id] = grant
        cpu[i] = node_cpu
        mem[i] = node_mem
        if node_mem < -1e-6:
            raise ConfigurationError(
                f"node {node_id}: retained jobs exceed memory ({node_mem:.1f} MB)"
            )
    return entries, rates


@st.composite
def retention_cases(draw):
    n_nodes = draw(st.integers(1, 8))
    nodes = [
        NodeSpec(
            node_id=f"n{i}",
            processors=draw(st.integers(1, 4)),
            mhz_per_processor=draw(st.sampled_from([1000.0, 2400.0, 3000.0])),
            memory_mb=draw(st.sampled_from([4000.0, 8000.0, 16000.0])),
        )
        for i in range(n_nodes)
    ]
    target = st.one_of(
        st.just(0.0), st.floats(0.0, 5000.0), st.floats(0.0, 1e-3), st.just(3000.0)
    )
    requests = []
    for j in range(draw(st.integers(0, 40))):
        host = draw(
            st.one_of(st.none(), st.sampled_from([n.node_id for n in nodes]), st.just("gone"))
        )
        requests.append(
            JobRequest(
                # Ids whose string order differs from their number order.
                job_id=f"job{draw(st.integers(0, 20000))}-{j}",
                vm_id=f"vm{j}",
                target_rate=draw(target),
                speed_cap=draw(st.floats(1.0, 4000.0)),
                memory_mb=draw(st.sampled_from([100.0, 400.0, 1200.0])),
                current_node=host,
                was_suspended=host is None and draw(st.booleans()),
                submit_time=draw(st.floats(0.0, 1e5)),
            )
        )
    return nodes, requests


@pytest.mark.parametrize("threshold", [0, 10**9], ids=["vector", "scalar"])
@given(retention_cases())
@settings(max_examples=60, deadline=None)
def test_retention_matches_the_per_node_loop(threshold, case):
    nodes, requests = case
    ref_state = _ClusterState(nodes)
    running = sorted(
        (r for r in requests if r.current_node in ref_state.pos), key=lambda r: r.job_id
    )
    try:
        expected = _reference_retention(running, ref_state)
    except ConfigurationError as exc:
        expected = str(exc)

    state = _ClusterState(nodes)
    columns = JobRequests.of(requests)
    host = np.array(
        [state.pos.get(r.current_node, -1) for r in requests], dtype=np.intp
    )
    solution = PlacementSolution(placement=Placement(), job_rates={}, app_allocations={})
    with mock.patch.object(placement_solver, "_RETAIN_VECTOR_MIN", threshold):
        try:
            PlacementSolver._retain_and_waterfill(_JobState(columns, host), state, solution)
        except ConfigurationError as exc:
            assert str(exc) == expected
            return
    entries, rates = expected
    got = [(e.vm_id, e.node_id, e.cpu_mhz, e.memory_mb) for e in solution.placement]
    assert [(v, n, m) for v, n, _, m in got] == [(v, n, m) for v, n, _, m in entries]
    assert _hex(c for _, _, c, _ in got) == _hex(c for _, _, c, _ in entries)
    assert list(solution.job_rates) == list(rates)
    assert _hex(solution.job_rates.values()) == _hex(rates.values())
    assert _hex(state.cpu) == _hex(ref_state.cpu)
    assert _hex(state.mem) == _hex(ref_state.mem)


# ----------------------------------------------------------------------
# Web share
# ----------------------------------------------------------------------
@st.composite
def share_cases(draw):
    n_nodes = draw(st.integers(1, 40))
    free = st.one_of(
        st.just(0.0), st.just(3000.0), st.floats(0.0, 1e-6), st.floats(0.0, 6000.0)
    )
    cpu = [draw(free) for _ in range(n_nodes)]
    instances = sorted(
        draw(st.sets(st.integers(0, n_nodes - 1), min_size=1, max_size=n_nodes))
    )
    total = sum(cpu[i] for i in instances)
    target = draw(
        st.one_of(
            st.just(0.0),
            st.just(total),
            st.floats(0.0, 1e-6),
            st.floats(0.0, max(total, 1.0) * 1.5),
        )
    )
    return cpu, [f"n{i:03d}" for i in instances], target


@given(share_cases())
@settings(max_examples=150, deadline=None)
def test_web_share_arrays_match_the_per_instance_loops(case):
    cpu, instance_nodes, target = case
    nodes = [
        NodeSpec(node_id=f"n{i:03d}", processors=2, mhz_per_processor=3000.0,
                 memory_mb=4000.0)
        for i in range(len(cpu))
    ]
    results = []
    for threshold in (0, 10**9):  # array passes, then the loops
        state = _ClusterState(nodes)
        state.cpu = list(cpu)
        with mock.patch.object(placement_solver, "_WEB_VECTOR_MIN", threshold):
            grants, left = placement_solver._share_over_instances(
                instance_nodes, target, state
            )
        results.append(
            (list(grants), _hex(grants.values()), float(left).hex(), _hex(state.cpu))
        )
    assert results[0] == results[1]


# ----------------------------------------------------------------------
# Per-node sums
# ----------------------------------------------------------------------
_NODES = [f"node{i}" for i in range(5)]

placement_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "place_many", "remove", "update_cpu"]),
        st.integers(0, 30),
        st.integers(0, len(_NODES) - 1),
        st.floats(0.0, 5000.0),
        st.floats(1.0, 4000.0),
    ),
    max_size=80,
)


@given(placement_ops)
@settings(max_examples=150, deadline=None)
def test_node_sums_are_left_to_right_sums_in_row_order(ops):
    placement = Placement()
    for op, vm, node_index, cpu, mem in ops:
        vm_id = f"vm{vm:02d}"
        node_id = _NODES[node_index]
        if op == "add" and vm_id not in placement:
            placement.add(PlacementEntry(vm_id, node_id, cpu, mem, LONG))
        elif op == "place_many" and vm_id not in placement:
            batch = [v for v in (vm_id, f"{vm_id}b", f"{vm_id}c") if v not in placement]
            placement.place_many(
                batch,
                [_NODES[(node_index + k) % len(_NODES)] for k in range(len(batch))],
                [cpu / (k + 1) for k in range(len(batch))],
                [mem] * len(batch),
                WEB,
            )
        elif op == "remove" and vm_id in placement:
            placement.remove(vm_id)
        elif op == "update_cpu" and vm_id in placement:
            placement.update_cpu(vm_id, cpu * 0.3)
        # Read the sums after every step, so a stale cache would show.
        for node_id in _NODES:
            entries = placement.entries_on(node_id)
            assert float(placement.cpu_used(node_id)).hex() == _left_sum(
                e.cpu_mhz for e in entries
            ).hex()
            assert float(placement.memory_used(node_id)).hex() == _left_sum(
                e.memory_mb for e in entries
            ).hex()


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
def _reference_plan(previous, desired, jobs):
    """The dict diff the planner was, over placement entries."""
    stops, suspends, migrations, resumes, starts = [], [], [], [], []
    grant_vms, grant_mhz = [], []
    old_entries = previous.by_vm()
    new_entries = desired.by_vm()
    jobs_by_vm = {job.vm_id: job for job in jobs}
    for vm_id in sorted(old_entries.keys() - new_entries.keys()):
        if old_entries[vm_id].kind is LONG:
            suspends.append(SuspendVm(vm_id))
        else:
            stops.append(StopVm(vm_id))
    for vm_id in sorted(new_entries):
        new = new_entries[vm_id]
        if vm_id in old_entries:
            old = old_entries[vm_id]
            if old.node_id != new.node_id:
                migrations.append(MigrateVm(vm_id, old.node_id, new.node_id, new.cpu_mhz))
            elif abs(old.cpu_mhz - new.cpu_mhz) > 1e-6:
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


_JOB_COUNT = 12

vm_state = st.tuples(
    st.integers(0, len(_NODES) - 1),
    st.one_of(st.just(100.0), st.just(100.0 + 5e-7), st.floats(0.0, 3000.0)),
)


@given(
    previous=st.dictionaries(st.integers(0, 2 * _JOB_COUNT), vm_state, max_size=20),
    desired=st.dictionaries(st.integers(0, 2 * _JOB_COUNT), vm_state, max_size=20),
    phases=st.lists(
        st.sampled_from([PENDING_CODE, RUNNING_CODE, SUSPENDED_CODE]),
        min_size=_JOB_COUNT,
        max_size=_JOB_COUNT,
    ),
    removed=st.lists(st.integers(0, 2 * _JOB_COUNT), max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_planner_matches_the_dict_diff(previous, desired, phases, removed):
    # VMs 0.._JOB_COUNT-1 are jobs' (vm-jobN), the rest web instances.
    specs = [
        JobSpec(f"job{i}", 0.0, 1e6, 3000.0, 1200.0, 1e4) for i in range(_JOB_COUNT)
    ]
    table = JobTable(specs)
    table.phase[:] = phases
    jobs = [Job(spec, table, row) for row, spec in enumerate(specs)]

    def vm(k):
        return f"vm-job{k}" if k < _JOB_COUNT else f"tx:web@{_NODES[k % len(_NODES)]}-{k}"

    def build(states):
        placement = Placement()
        for k, (node_index, cpu) in states.items():
            kind = LONG if k < _JOB_COUNT else WEB
            placement.place(vm(k), _NODES[node_index], cpu, 400.0, kind)
        return placement

    old, new = build(previous), build(desired)
    for k in removed:  # holes in the incumbent, as completions leave
        if vm(k) in old:
            old.remove(vm(k))
    try:
        expected = _reference_plan(old, new, jobs)
    except PlacementError as exc:
        with pytest.raises(PlacementError, match=str(exc)):
            plan_actions(old, new, jobs)
        return
    got = plan_actions(old, new, jobs)
    assert got == expected
    grants = [a for a in got if isinstance(a, CpuGrants)]
    if grants:
        assert _hex(grants[0].cpu_mhz) == _hex(expected[-1].cpu_mhz)


# ----------------------------------------------------------------------
# Request columns
# ----------------------------------------------------------------------
@st.composite
def request_cases(draw):
    count = draw(st.integers(0, 12))
    specs = [
        JobSpec(
            job_id=f"job{draw(st.integers(0, 20000))}-{i}",
            submit_time=draw(st.floats(0.0, 100.0)),
            total_work=draw(st.floats(1.0, 1e7)),
            speed_cap_mhz=draw(st.floats(1.0, 4000.0)),
            memory_mb=draw(st.sampled_from([400.0, 1200.0, 2000.0])),
            completion_goal=draw(st.floats(1.0, 1e5)),
            importance=draw(st.floats(0.0, 10.0)),
        )
        for i in range(count)
    ]
    phase = st.sampled_from([PENDING_CODE, RUNNING_CODE, SUSPENDED_CODE])
    phases = [draw(phase) for _ in specs]
    rates = [draw(st.floats(0.0, 5000.0)) for _ in specs]
    shared = draw(st.booleans())
    return specs, phases, rates, shared


@given(request_cases())
@settings(max_examples=100, deadline=None)
def test_request_columns_match_rows_built_per_job(case):
    specs, phases, rates, shared = case
    if shared:
        table = JobTable(specs)
        jobs = [Job(spec, table, row) for row, spec in enumerate(specs)]
    else:  # hand-built jobs: one table each
        jobs = [Job(spec) for spec in specs]
    for job, code in zip(jobs, phases):
        job.table.phase[job.row] = code
        if code == RUNNING_CODE:
            job._node_id = f"node{job.row % 3}"
    included = []
    population = snapshot_jobs(jobs, 200.0, included=included)
    hypothetical = SimpleNamespace(rates=np.array(rates[: len(included)], dtype=float))
    got = UtilityDrivenController([])._job_requests(included, population, hypothetical)

    expected = [
        JobRequest(
            job.spec.job_id,
            job.vm_id,
            rate,
            job.spec.speed_cap_mhz,
            job.spec.memory_mb,
            job._node_id,
            was_suspended,
            job.spec.submit_time,
            job.spec.importance,
            remaining,
        )
        for job, rate, remaining, was_suspended in zip(
            included,
            hypothetical.rates.tolist(),
            population.remaining.tolist(),
            [job.phase is JobPhase.SUSPENDED for job in included],
        )
    ]
    assert len(got) == len(expected)
    for row, want in zip(got, expected):
        assert (row.job_id, row.vm_id, row.current_node, row.was_suspended) == (
            want.job_id, want.vm_id, want.current_node, want.was_suspended
        )
        floats = ("target_rate", "speed_cap", "memory_mb", "submit_time", "importance",
                  "remaining_work")
        assert _hex(getattr(row, f) for f in floats) == _hex(getattr(want, f) for f in floats)
    # The ranks order the rows as their ids sort.
    by_rank = [got.job_id[i] for i in np.argsort(got.id_rank, kind="stable")]
    assert by_rank == sorted(got.job_id)
    assert JobRequests.of(expected).job_id == got.job_id
    assert not math.isnan(sum(got.target_rate.tolist()))
