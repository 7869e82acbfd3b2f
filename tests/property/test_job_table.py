"""Each vector pass of :class:`~repro.workloads.jobs.JobTable` equals the
scalar :class:`~repro.workloads.jobs.Job` method, bit for bit.

The runner integrates progress, predicts completions and applies a plan's
CPU grants in one pass over many table rows; the scalar methods do the
same per job in Python floats.  Hypothesis draws rows in every phase,
with remaining work at 0, at most 1e-6 or anywhere up to the job's total,
rates at 0, at the cap or between, and ``last_update <= t``.  Every
compared value is compared by ``float.hex``, so signed zeros count.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.errors import ConfigurationError, LifecycleError, ModelError
from repro.perf.jobmodel import snapshot_jobs
from repro.workloads.jobs import Job, JobSpec, JobTable

STATE_COLUMNS = ("phase", "remaining", "rate", "last_update", "cpu_integral")
FLOAT_COLUMNS = ("remaining", "rate", "last_update", "cpu_integral")


@st.composite
def job_rows(draw, max_rows=6):
    """(specs, one state per spec, a time ``t`` no earlier than any last update)."""
    specs, states = [], []
    for i in range(draw(st.integers(1, max_rows))):
        cap = draw(st.floats(1.0, 5000.0))
        work = draw(st.floats(1.0, 1e8))
        submit = draw(st.floats(0.0, 1e5))
        specs.append(
            JobSpec(
                job_id=f"j{i}",
                submit_time=submit,
                total_work=work,
                speed_cap_mhz=cap,
                memory_mb=1200.0,
                completion_goal=draw(st.floats(1.0, 1e5)),
                importance=draw(st.floats(0.0, 10.0)),
            )
        )
        states.append(
            {
                "phase": draw(st.integers(0, 4)),
                "remaining": draw(
                    st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, work))
                ),
                "rate": draw(
                    st.one_of(st.just(0.0), st.just(cap), st.floats(0.0, cap))
                ),
                "last_update": submit
                + draw(st.one_of(st.just(0.0), st.floats(0.0, 1e5))),
                "cpu_integral": draw(st.floats(0.0, 1e8)),
            }
        )
    t = max(s["last_update"] for s in states) + draw(
        st.one_of(st.just(0.0), st.floats(0.0, 1e5))
    )
    return specs, states, t


def build(specs, states):
    """The same rows twice: views of one shared table, and one-row jobs."""
    table = JobTable(specs)
    shared = [Job(spec, table, row) for row, spec in enumerate(specs)]
    single = [Job(spec) for spec in specs]
    for row, (state, job) in enumerate(zip(states, single)):
        for name in STATE_COLUMNS:
            getattr(table, name)[row] = state[name]
            getattr(job.table, name)[0] = state[name]
    return table, shared, single


def hexes(values):
    return [float(v).hex() for v in values]


def assert_rows_equal(table, single):
    for name in FLOAT_COLUMNS:
        vector = getattr(table, name).tolist()
        scalar = [getattr(job.table, name).item(0) for job in single]
        assert hexes(vector) == hexes(scalar), name


def rows_of(specs):
    return np.arange(len(specs), dtype=np.intp)


@given(job_rows())
@settings(max_examples=150, deadline=None)
def test_vector_advance_equals_advance_to(drawn):
    specs, states, t = drawn
    table, _, single = build(specs, states)
    table.advance(rows_of(specs), t)
    for job in single:
        job.advance_to(t)
    assert_rows_equal(table, single)


@given(job_rows())
@settings(max_examples=150, deadline=None)
def test_vector_prediction_equals_predicted_completion(drawn):
    specs, states, t = drawn
    table, _, single = build(specs, states)
    vector = table.predicted_completion(rows_of(specs), t)
    assert hexes(vector) == hexes(job.predicted_completion(t) for job in single)


@given(job_rows(), st.data())
@settings(max_examples=150, deadline=None)
def test_record_grant_equals_set_rate(drawn, data):
    specs, states, t = drawn
    grants = [
        data.draw(
            st.one_of(
                st.just(0.0),
                st.just(spec.speed_cap_mhz),
                st.floats(0.0, 2.0 * spec.speed_cap_mhz),
                st.floats(max_value=-1e-9),
                st.just(math.nan),
            )
        )
        for spec in specs
    ]
    table, _, single = build(specs, states)
    try:
        for job, mhz in zip(single, grants):
            job.set_rate(t, mhz)
    except LifecycleError as scalar_error:
        with pytest.raises(LifecycleError) as vector_error:
            table.set_rates(rows_of(specs), np.array(grants), t)
        assert str(vector_error.value) == str(scalar_error)
        return
    table.set_rates(rows_of(specs), np.array(grants), t)
    assert_rows_equal(table, single)


@given(job_rows(), st.data())
@settings(max_examples=150, deadline=None)
def test_snapshot_of_one_table_equals_snapshot_of_one_row_tables(drawn, data):
    specs, states, t = drawn
    # Some jobs are not submitted yet at the snapshot time.
    t = data.draw(st.one_of(st.just(t), st.floats(0.0, t)))
    for spec, state in zip(specs, states):
        if spec.submit_time > t:
            state.update(phase=0, last_update=spec.submit_time)
    _, shared, single = build(specs, states)
    live = [spec.submit_time <= t and state["phase"] < 3
            for spec, state in zip(specs, states)]
    if any(state["last_update"] > t for state, kept in zip(states, live) if kept):
        # A live job updated after ``t``: both raise the same error.
        with pytest.raises(ModelError) as from_shared:
            snapshot_jobs(shared, t)
        with pytest.raises(ModelError) as from_single:
            snapshot_jobs(single, t)
        assert str(from_shared.value) == str(from_single.value)
        return
    included = []
    a = snapshot_jobs(shared, t, included=included)
    b = snapshot_jobs(single, t)
    assert a.job_ids == b.job_ids == tuple(
        spec.job_id for spec, kept in zip(specs, live) if kept
    )
    assert [job.job_id for job in included] == list(a.job_ids)
    for name in ("remaining", "caps", "goals_abs", "goal_lengths", "importance"):
        assert hexes(getattr(a, name)) == hexes(getattr(b, name)), name
    # The absolute goal is the spec's own sum.
    assert hexes(a.goals_abs) == hexes(
        spec.absolute_goal for spec, kept in zip(specs, live) if kept
    )


class TestErrors:
    """The vector passes raise the scalar methods' errors."""

    def table(self):
        specs = [
            JobSpec(f"j{i}", 0.0, 3e6, 3000.0, 1200.0, 4000.0) for i in range(3)
        ]
        table = JobTable(specs)
        return table, [Job(spec, table, row) for row, spec in enumerate(specs)]

    def test_advance_before_last_update(self):
        table, jobs = self.table()
        jobs[1].advance_to(50.0)
        with pytest.raises(LifecycleError) as scalar:
            jobs[1].advance_to(10.0)
        with pytest.raises(LifecycleError) as vector:
            table.advance(np.arange(3), 10.0)
        assert str(vector.value) == str(scalar.value)

    def test_prediction_before_last_update(self):
        table, jobs = self.table()
        jobs[2].advance_to(50.0)
        with pytest.raises(LifecycleError) as scalar:
            jobs[2].predicted_completion(10.0)
        with pytest.raises(LifecycleError) as vector:
            table.predicted_completion(np.arange(3), 10.0)
        assert str(vector.value) == str(scalar.value)

    def test_failing_grant_changes_no_row(self):
        table, jobs = self.table()
        jobs[0].start(0.0, "n0", 1000.0)
        before = table.rate.copy(), table.remaining.copy()
        with pytest.raises(LifecycleError, match="j1: cannot make progress"):
            table.set_rates(np.arange(3), np.array([500.0, 500.0, 0.0]), 10.0)
        assert np.array_equal(table.rate, before[0])
        assert np.array_equal(table.remaining, before[1])

    def test_one_row_table_job_keeps_its_spec_row(self):
        table, _ = self.table()
        with pytest.raises(ConfigurationError, match="row 0 of its table holds j0"):
            Job(JobSpec("other", 0.0, 1.0, 1.0, 1.0, 1.0), table, 0)
