"""The job-row handle reads what the same jobs as a list of views read, bit for bit.

:class:`~repro.workloads.jobs.JobRows` is how the runner hands its live
jobs to ``decide()``: its table, some of its rows, its views by row and
its VM-id -> row map, built from the live mask with no pass over the
jobs.  Every reader of the handle -- :func:`gather`, the population
snapshot, the controller's request columns and the planner -- must give
what it gives for the same jobs as a plain list of :class:`Job` views
(of the one table, or each a one-row table, which :meth:`JobRows.of`
stacks into one).  Floats compare by ``float.hex``, so signed zeros
count; ids, hosts and orders compare exactly.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.actions import ResumeVm, StartVm
from repro.cluster.placement import Placement
from repro.core import plan_actions
from repro.core.controller import UtilityDrivenController
from repro.errors import PlacementError
from repro.perf.jobmodel import snapshot_jobs
from repro.types import WorkloadKind
from repro.workloads.jobs import (
    LIVE_CODES,
    PENDING_CODE,
    RUNNING_CODE,
    SUSPENDED_CODE,
    Job,
    JobRows,
    JobSpec,
    JobTable,
    gather,
)

#: Every numeric column of a row.
COLUMNS = (
    "submit", "cap", "goal_len", "importance", "memory", "rank", "remaining",
    "rate", "last_update", "cpu_integral", "phase", "started_at", "completed_at",
    "suspensions", "migrations", "work_lost",
)
STATE = ("phase", "remaining", "rate", "last_update", "cpu_integral", "started_at")
SNAPSHOT = ("remaining", "caps", "goals_abs", "goal_lengths", "importance")
REQUEST_FLOATS = (
    "target_rate", "speed_cap", "memory_mb", "submit_time", "importance",
    "remaining_work",
)


def hexes(values):
    return [float(v).hex() for v in values]


def same_column(a, b):
    if a.dtype.kind == "f":
        return hexes(a) == hexes(b)
    return a.dtype == b.dtype and a.tolist() == b.tolist()


@st.composite
def runner_jobs(draw, max_rows=10):
    """A run's jobs at time ``t`` and a handle over some of its rows.

    Jobs submitted after ``t`` are PENDING and updated at their submit
    time; the others are in any phase, updated at or before ``t``, and
    the RUNNING ones hold a host.  The handle's VM map covers every row,
    as the runner's does; its rows are any of them, in trace order or
    not.
    """
    count = draw(st.integers(0, max_rows))
    t = draw(st.floats(0.0, 1e5))
    specs, states = [], []
    for i in range(count):
        cap = draw(st.floats(1.0, 5000.0))
        work = draw(st.floats(1.0, 1e8))
        submitted = draw(st.booleans())
        submit = (
            draw(st.floats(0.0, t)) if submitted else t + draw(st.floats(1e-3, 1e5))
        )
        specs.append(
            JobSpec(
                job_id=f"job{draw(st.integers(0, 20000))}-{i}",
                submit_time=submit,
                total_work=work,
                speed_cap_mhz=cap,
                memory_mb=draw(st.sampled_from([400.0, 1200.0, 2000.0])),
                completion_goal=draw(st.floats(1.0, 1e5)),
                importance=draw(st.floats(0.0, 10.0)),
            )
        )
        phase = draw(st.integers(0, 4)) if submitted else PENDING_CODE
        last = submit
        if submitted:
            last = min(t, submit + draw(st.floats(0.0, 1.0)) * (t - submit))
        states.append(
            {
                "phase": phase,
                "remaining": draw(
                    st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, work))
                ),
                "rate": draw(st.one_of(st.just(0.0), st.just(cap), st.floats(0.0, cap))),
                "last_update": last,
                "cpu_integral": draw(st.floats(0.0, 1e8)),
                "started_at": submit if phase else np.nan,
                "host": f"node{draw(st.integers(0, 3))}" if phase == RUNNING_CODE else None,
            }
        )
    rows = draw(st.lists(st.integers(0, count - 1), unique=True)) if count else []
    if draw(st.booleans()):
        rows.sort()  # trace order, as the runner's live mask gives
    return specs, states, rows, t


def build(specs, states, rows):
    """The runner's handle, the same jobs as a view list, and as one-row jobs."""
    table = JobTable(specs)
    views = [Job(spec, table, row) for row, spec in enumerate(specs)]
    single = [Job(spec) for spec in specs]
    for row, state in enumerate(states):
        for job, at in ((views[row], row), (single[row], 0)):
            for name in STATE:
                getattr(job.table, name)[at] = state[name]
            job._node_id = state["host"]
    by_row = np.empty(len(views), dtype=object)
    by_row[:] = views
    handle = JobRows(
        table, np.array(rows, dtype=np.intp), by_row, {j.vm_id: j.row for j in views}
    )
    return handle, [views[r] for r in rows], [single[r] for r in rows]


@given(runner_jobs())
@settings(max_examples=200, deadline=None)
def test_gather_reads_the_handle_rows_as_the_view_list(drawn):
    specs, states, rows, _ = drawn
    handle, listed, single = build(specs, states, rows)
    by_handle = gather(handle, COLUMNS)
    for name, a, b, c in zip(COLUMNS, by_handle, gather(listed, COLUMNS), gather(single, COLUMNS)):
        assert same_column(a, b), name
        if name == "rank":  # a table's ranks order its own rows
            assert np.argsort(a, kind="stable").tolist() == np.argsort(c, kind="stable").tolist()
        else:
            assert same_column(a, c), name
    # The handle is the sequence of those views.
    assert len(handle) == len(listed)
    assert all(a is b for a, b in zip(handle, listed))
    assert all(handle[i] is listed[i] for i in range(len(listed)))
    assert JobRows.of(handle) is handle
    assert JobRows.of(listed).rows.tolist() == rows
    assert handle[1:].rows.tolist() == rows[1:]
    assert handle.job_ids.tolist() == [job.job_id for job in listed]


@given(runner_jobs(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_snapshot_of_the_handle_equals_the_snapshot_of_the_view_list(drawn, empty):
    specs, states, rows, t = drawn
    if empty:  # no live job at all
        rows = []
    handle, listed, single = build(specs, states, rows)
    kept = [
        row for row in rows
        if specs[row].submit_time <= t and states[row]["phase"] < LIVE_CODES
    ]
    included = []
    a = snapshot_jobs(handle, t, included=included)
    b = snapshot_jobs(listed, t)
    c = snapshot_jobs(single, t)
    assert a.job_ids == b.job_ids == c.job_ids == tuple(specs[r].job_id for r in kept)
    for name in SNAPSHOT:
        assert hexes(getattr(a, name)) == hexes(getattr(b, name)) == hexes(getattr(c, name)), name
    # The kept rows come back as a handle over the same table and views.
    assert a.jobs.table is handle.table and a.jobs.views is handle.views
    assert a.jobs.rows.tolist() == kept
    assert a.jobs.vm_rows is handle.vm_rows
    assert [job.row for job in included] == kept
    assert all(job is handle.views[row] for job, row in zip(included, kept))
    assert len(a) == len(kept)


@given(runner_jobs())
@settings(max_examples=150, deadline=None)
def test_requests_of_the_handle_equal_those_of_the_view_list(drawn):
    specs, states, rows, t = drawn
    handle, listed, _ = build(specs, states, rows)
    by_handle = snapshot_jobs(handle, t)
    included = []
    by_list = snapshot_jobs(listed, t, included=included)
    rng = np.random.default_rng(len(included))
    hypothetical = SimpleNamespace(rates=rng.uniform(0.0, 5000.0, len(included)))
    builder = UtilityDrivenController([])._job_requests
    got = builder(by_handle.jobs, by_handle, hypothetical)
    want = builder(included, by_list, hypothetical)
    for name in ("job_id", "vm_id", "current_node"):
        assert getattr(got, name) == getattr(want, name), name
    # ... and each row is its job's, read per view.
    assert got.job_id == [job.job_id for job in included]
    assert got.vm_id == [job.vm_id for job in included]
    assert got.current_node == [job.node_id for job in included]
    assert got.was_suspended.tolist() == [job.phase.value == "suspended" for job in included]
    assert hexes(got.speed_cap) == hexes(job.spec.speed_cap_mhz for job in included)
    for name in REQUEST_FLOATS:
        assert hexes(getattr(got, name)) == hexes(getattr(want, name)), name
    assert got.was_suspended.tolist() == want.was_suspended.tolist()
    assert got.id_rank.tolist() == want.id_rank.tolist()
    # The ids are the table's own strings, not copies.
    kept = by_handle.jobs.rows.tolist()
    assert all(a is specs[r].job_id for a, r in zip(got.job_id, kept))
    assert all(a is handle.table.vm_ids[r] for a, r in zip(got.vm_id, kept))


@given(runner_jobs(), st.data())
@settings(max_examples=150, deadline=None)
def test_planner_over_the_handle_equals_the_planner_over_the_view_list(drawn, data):
    specs, states, rows, _ = drawn
    handle, listed, _ = build(specs, states, rows)
    vms = [job.vm_id for job in listed] + ["tx:web@node0", "tx:web@node1"]
    chosen = data.draw(st.lists(st.sampled_from(vms), unique=True))
    previous, desired = Placement(), Placement()
    for vm_id in chosen:
        kind = WorkloadKind.TRANSACTIONAL if vm_id.startswith("tx:") else WorkloadKind.LONG_RUNNING
        where = data.draw(st.sampled_from([(previous,), (desired,), (previous, desired)]))
        for placement in where:
            node = f"node{data.draw(st.integers(0, 3))}"
            placement.place(vm_id, node, data.draw(st.floats(0.0, 3000.0)), 400.0, kind)
    try:
        want = plan_actions(previous, desired, listed)
    except PlacementError as exc:
        with pytest.raises(PlacementError) as got:
            plan_actions(previous, desired, handle)
        assert str(got.value) == str(exc)
        return
    assert plan_actions(previous, desired, handle) == want


class TestPlannerOverTheRunnerHandle:
    """An entering VM's job is found through the runner's VM -> row map."""

    def handle(self):
        specs = [JobSpec(f"j{i}", 0.0, 3e6, 3000.0, 1200.0, 4000.0) for i in range(4)]
        table = JobTable(specs)
        views = [Job(spec, table, row) for row, spec in enumerate(specs)]
        views[1].start(0.0, "n0", 3000.0)
        views[1].suspend(10.0)
        views[2].start(0.0, "n1", 3000.0)
        views[3].start(0.0, "n2", 3000.0)
        views[3].cancel(10.0)
        by_row = np.empty(4, dtype=object)
        by_row[:] = views
        live = np.array([0, 1, 2], dtype=np.intp)
        return JobRows(table, live, by_row, {j.vm_id: j.row for j in views}), views

    def entering(self, vm_id):
        placement = Placement()
        placement.place(vm_id, "n3", 1500.0, 1200.0, WorkloadKind.LONG_RUNNING)
        return placement

    def test_a_pending_vm_starts(self):
        handle, _ = self.handle()
        assert plan_actions(Placement(), self.entering("vm-j0"), handle) == [
            StartVm("vm-j0", "n3", 1500.0)
        ]

    def test_a_suspended_vm_resumes(self):
        handle, _ = self.handle()
        assert handle.table.phase[1] == SUSPENDED_CODE
        assert plan_actions(Placement(), self.entering("vm-j1"), handle) == [
            ResumeVm("vm-j1", "n3", 1500.0)
        ]

    def test_a_terminal_jobs_vm_raises(self):
        """The terminal job is not live, yet the runner's map names it."""
        handle, views = self.handle()
        with pytest.raises(PlacementError) as by_handle:
            plan_actions(Placement(), self.entering("vm-j3"), handle)
        with pytest.raises(PlacementError) as by_list:
            plan_actions(Placement(), self.entering("vm-j3"), views)
        assert str(by_handle.value) == str(by_list.value) == (
            "vm vm-j3: desired placement requires state PENDING or SUSPENDED, "
            "found cancelled"
        )

    def test_a_vm_with_no_job_starts(self):
        handle, _ = self.handle()
        assert plan_actions(Placement(), self.entering("tx:web@n3"), handle) == [
            StartVm("tx:web@n3", "n3", 1500.0)
        ]
