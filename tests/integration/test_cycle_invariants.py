"""Per-cycle bookkeeping invariants of the experiment runner.

:class:`CheckedRunner` runs a scenario exactly like
:class:`~repro.experiments.runner.ExperimentRunner` and, after every
control cycle at time ``t``, checks that:

* the ``jobs`` handed to ``decide`` are, by identity and in order, the
  trace's jobs with ``submit_time <= t`` that are not completed or
  cancelled;
* each pending completion event belongs to a RUNNING job with no pending
  rate event and fires at or before ``t + control_cycle``;
* each pending rate event belongs to a RUNNING job;
* work is conserved: ``cpu_time_integral + remaining_work - work_lost ==
  total_work`` for every job;
* a job is RUNNING iff its VM is in the runner's placement, and its
  ``node_id`` is its placement entry's node (``None`` when not RUNNING);
* each app's ``instance_nodes`` are the placement's ``tx:`` entries, and
  every placement entry is on an active node;
* the placement fits the active, brownout-derated nodes.

The same checks, all but the fit, also run right after each node
failure: the next decision would otherwise rebuild the placement and
heal a fault handler's bookkeeping before any check saw it.  The fit
waits for the next cycle, because a brownout's overcommit legitimately
lasts until then.
"""

import dataclasses
import math
from collections import defaultdict
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment, available_scenarios
from repro.baselines.registry import get_policy
from repro.cluster.placement import parse_instance_vm_id
from repro.core import plan_actions
from repro.experiments.runner import ExperimentRunner, default_policy_factory
from repro.experiments.scenario import NodeBrownout, NodeFailure
from repro.sim.engine import ORDER_DEFAULT
from repro.types import WorkloadKind
from repro.workloads import JobPhase

WORK_RTOL = 1e-9


class CheckedRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that checks its bookkeeping every cycle."""

    def __init__(self, scenario, policy_factory=None):
        super().__init__(scenario, policy_factory)
        self.checked_cycles = 0
        self._handed = None
        decide = self._policy.decide

        def recording_decide(t, **kwargs):
            self._handed = kwargs["jobs"]
            return decide(t, **kwargs)

        self._policy.decide = recording_decide

    def _control_cycle(self, t):
        expected = [
            job
            for job in self._jobs.values()
            if job.spec.submit_time <= t and job.is_incomplete
        ]
        super()._control_cycle(t)
        assert len(self._handed) == len(expected) and all(
            a is b for a, b in zip(self._handed, expected)
        ), f"t={t}: decide() got {len(self._handed)} jobs, not the live trace-order set"
        self._check_events(t)
        self._check_jobs(t)
        self._check_instances(t)
        self._check_fit(t)
        self.checked_cycles += 1

    def _fail_node(self, t, node_id):
        super()._fail_node(t, node_id)
        self._check_events(t)
        self._check_jobs(t)
        self._check_instances(t)

    def _check_events(self, t):
        pending = {"complete": {}, "rate": {}}
        for event in self._sim.queue._heap:
            kind, _, job_id = event.tag.partition(":")
            if event.cancelled or kind not in pending:
                continue
            assert job_id not in pending[kind], f"t={t}: two {kind} events for {job_id}"
            pending[kind][job_id] = event
        completions, rates = pending["complete"], pending["rate"]
        assert completions == self._completion_events, f"t={t}: completion registry"
        assert rates == self._rate_events, f"t={t}: rate registry"
        horizon = t + self.scenario.controller.control_cycle
        for job_id, event in completions.items():
            assert self._jobs[job_id].phase is JobPhase.RUNNING, f"t={t}: {job_id}"
            assert job_id not in rates, f"t={t}: {job_id} has a rate and a completion event"
            assert event.time <= horizon, f"t={t}: {job_id} completes at {event.time}"
        for job_id in rates:
            assert self._jobs[job_id].phase is JobPhase.RUNNING, f"t={t}: {job_id}"

    def _check_jobs(self, t):
        placed = self._placement.by_vm()
        for job in self._jobs.values():
            stats = job.stats
            work = stats.cpu_time_integral + job.remaining_work - stats.work_lost
            assert math.isclose(work, job.spec.total_work, rel_tol=WORK_RTOL), (
                f"t={t}: {job.job_id} accounts for {work} of {job.spec.total_work} MHz·s"
            )
            entry = placed.get(job.vm_id)
            running = job.phase is JobPhase.RUNNING
            assert running == (entry is not None), (
                f"t={t}: {job.job_id} is {job.phase} but placed={not running}"
            )
            host = entry.node_id if running else None
            assert job.node_id == host, (
                f"t={t}: {job.job_id} is on {job.node_id}, placed on {host}"
            )

    def _check_instances(self, t):
        active = {node.node_id for node in self._cluster.active_nodes()}
        hosted = defaultdict(list)
        for entry in self._placement:
            assert entry.node_id in active, (
                f"t={t}: {entry.vm_id} is placed on {entry.node_id}, which is not active"
            )
            instance = parse_instance_vm_id(entry.vm_id)
            if instance is not None:
                hosted[instance[0]].append(instance[1])
        for app_id, app in self._apps.items():
            assert sorted(app.instance_nodes) == sorted(hosted.pop(app_id, [])), (
                f"t={t}: {app_id} instances disagree with the placement"
            )
        assert not hosted, f"t={t}: instances of unknown apps {sorted(hosted)}"

    def _check_fit(self, t):
        nodes = {node.node_id: node for node in self._cluster.active_nodes()}
        violation = self._placement.violation(nodes)
        assert violation is None, f"t={t}: {violation}"


def run_checked(scenario, policy="utility"):
    runner = CheckedRunner(scenario, get_policy(policy))
    result = runner.run()
    assert runner.checked_cycles == result.cycles > 0
    return result


RUNS = [
    *(pytest.param(name, "utility", {}, id=name) for name in available_scenarios()),
    pytest.param("smoke", "fcfs", {}, id="smoke@fcfs"),
    pytest.param("smoke", "chaos-utility", {}, id="smoke@chaos-utility"),
    pytest.param("smoke", "utility", {"controller.shards": 4}, id="smoke@shards=4"),
]


@pytest.mark.parametrize("name, policy, overrides", RUNS)
def test_invariants_hold_every_cycle(name, policy, overrides):
    experiment = Experiment.from_spec(name, policy=policy, overrides=overrides or None)
    run_checked(experiment.materialize(), policy)


def test_invariants_hold_on_a_trace_not_sorted_by_submit_time():
    scenario = Experiment.from_spec("smoke").materialize()
    reversed_trace = tuple(reversed(scenario.job_specs))
    submits = [spec.submit_time for spec in reversed_trace]
    assert submits != sorted(submits)
    result = run_checked(dataclasses.replace(scenario, job_specs=reversed_trace))
    assert result.recorder.counter("jobs_completed") > 0


#: The smoke scenario's nodes, horizon, control cycle and trace length.
SMOKE_NODES = ("node000", "node001", "node002", "node003")
SMOKE_HORIZON = 6_000.0
SMOKE_CYCLE = 300.0
SMOKE_JOBS = 20


@st.composite
def _fault_window(draw):
    """``(at, restore_at)``: any instant, or exactly a control cycle's (a
    fault and a decision at the same time), restored later or never."""
    at = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=SMOKE_HORIZON),
            st.integers(0, 20).map(lambda k: k * SMOKE_CYCLE),
        )
    )
    length = draw(st.one_of(st.none(), st.floats(min_value=1.0, max_value=3_000.0)))
    return at, None if length is None else at + length


@st.composite
def fault_schedules(draw):
    nodes = st.sampled_from(SMOKE_NODES)
    failures = []
    for _ in range(draw(st.integers(0, 3))):
        at, restore_at = draw(_fault_window())
        failures.append(NodeFailure(at=at, node_id=draw(nodes), restore_at=restore_at))
    brownouts = []
    for _ in range(draw(st.integers(0, 3))):
        at, restore_at = draw(_fault_window())
        fraction = draw(st.floats(min_value=0.05, max_value=0.95))
        brownouts.append(
            NodeBrownout(
                at=at, node_id=draw(nodes), fraction=fraction, restore_at=restore_at
            )
        )
    return failures, brownouts


@settings(max_examples=30, deadline=None)
@given(fault_schedules(), st.sampled_from([1, 4]))
def test_invariants_hold_under_random_fault_schedules(schedule, shards):
    """Failures, brownouts and restores at random instants, on one or four
    shards.  The runner owns the placement a decision returns and removes
    completed and failed VMs from it between cycles; every cycle must
    still see a consistent placement."""
    failures, brownouts = schedule
    overrides = {"controller.shards": shards} if shards > 1 else None
    scenario = Experiment.from_spec("smoke", overrides=overrides).materialize()
    assert scenario.horizon == SMOKE_HORIZON
    assert scenario.controller.control_cycle == SMOKE_CYCLE
    assert tuple(scenario.topology.build_cluster().node_ids) == SMOKE_NODES
    run_checked(scenario.with_failures(failures).with_brownouts(brownouts))


@st.composite
def arrival_traces(draw, size):
    """``size`` submit times, in trace order: any instant, a control
    cycle's (an arrival and a decision at the same time), or one of a few
    burst instants that several jobs share.  Drawn independently, so the
    trace is almost always out of submit order."""
    instant = st.one_of(
        st.floats(min_value=0.0, max_value=SMOKE_HORIZON),
        st.integers(0, 20).map(lambda k: k * SMOKE_CYCLE),
    )
    bursts = draw(st.lists(instant, min_size=1, max_size=3))
    submit = st.one_of(instant, st.sampled_from(bursts))
    return draw(st.lists(submit, min_size=size, max_size=size))


@settings(max_examples=25, deadline=None)
@given(arrival_traces(SMOKE_JOBS))
def test_invariants_hold_under_random_arrival_traces(submits):
    """The smoke trace's jobs resubmitted at drawn instants: bursts of
    equal submit times, times out of trace order and arrivals exactly at
    a control-cycle boundary.  Each cycle must hand decide() the live
    trace-order set and keep the placement consistent."""
    scenario = Experiment.from_spec("smoke").materialize()
    assert len(scenario.job_specs) == SMOKE_JOBS
    specs = tuple(
        dataclasses.replace(spec, submit_time=submit)
        for spec, submit in zip(scenario.job_specs, submits)
    )
    run_checked(dataclasses.replace(scenario, job_specs=specs))


class _Move(NamedTuple):
    t: float
    vm_id: str
    dst: str
    cpu_mhz: float


class _MigrateOnce:
    """Test-only policy: the default controller, plus one migration.

    At the first cycle from ``at`` on where some RUNNING job keeps its
    host in the decided placement and another active node has room for
    it -- its memory and some free CPU -- the job with the most remaining
    work moves to the first such node, granted its CPU or the node's
    free CPU if less, and the cycle is re-planned with
    :func:`plan_actions`.
    """

    def __init__(self, inner, at):
        self.inner = inner
        self.at = at
        self.moved = None

    def observe_app(self, app_id, *, load, service_cycles=None):
        self.inner.observe_app(app_id, load=load, service_cycles=service_cycles)

    def decide(self, t, *, nodes, jobs, current_placement, app_nodes):
        decision = self.inner.decide(
            t,
            nodes=nodes,
            jobs=jobs,
            current_placement=current_placement,
            app_nodes=app_nodes,
        )
        if self.moved is not None or t < self.at:
            return decision
        placement = decision.placement
        running = {job.vm_id: job for job in jobs if job.phase is JobPhase.RUNNING}
        moves = []
        for entry in placement:
            incumbent = current_placement.get(entry.vm_id)
            if (
                entry.kind is not WorkloadKind.LONG_RUNNING
                or entry.vm_id not in running
                or incumbent is None
                or incumbent.node_id != entry.node_id
            ):
                continue
            for node in nodes:
                free_cpu = node.cpu_capacity - placement.cpu_used(node.node_id)
                free_memory = node.memory_mb - placement.memory_used(node.node_id)
                if (
                    node.node_id != entry.node_id
                    and free_cpu > 0.0
                    and entry.memory_mb <= free_memory
                ):
                    moves.append((entry, node.node_id, min(entry.cpu_mhz, free_cpu)))
                    break
        if not moves:
            return decision
        entry, dst, cpu = max(
            moves, key=lambda move: running[move[0].vm_id].remaining_work
        )
        moved = placement.copy()
        moved.remove(entry.vm_id)
        moved.add(dataclasses.replace(entry, node_id=dst, cpu_mhz=cpu))
        self.moved = _Move(t, entry.vm_id, dst, cpu)
        return dataclasses.replace(
            decision,
            solution=dataclasses.replace(decision.solution, placement=moved),
            actions=plan_actions(current_placement, moved, jobs),
        )


class _MigrationProbe(CheckedRunner):
    """A :class:`CheckedRunner` that samples the migrated job's host and
    rate right after the migrating cycle, halfway through the pause, and
    just before and just after the pause's end."""

    def __init__(self, scenario, mover):
        super().__init__(scenario, lambda _: mover)
        self.mover = mover
        self.samples = {}

    def _control_cycle(self, t):
        super()._control_cycle(t)
        move = self.mover.moved
        if move is None or move.t != t:
            return
        job = self._job_of(move.vm_id)
        end = t + self.scenario.costs.migrate_pause

        def sample(name):
            def probe(_):
                self.samples[name] = (job.phase, job.node_id, job.rate)

            return probe

        sample("enacted")(t)
        self._sim.at((t + end) / 2, sample("paused"), tag="probe")
        self._sim.at(end, sample("before"), order=ORDER_DEFAULT - 1, tag="probe")
        self._sim.at(end, sample("after"), order=ORDER_DEFAULT + 1, tag="probe")


def test_a_migration_runs_through_the_runner():
    """No registered scenario migrates a VM, so a test policy moves one
    running job: the runner's ``MigrateVm`` path, ``Job.migrate`` and
    the migration pause run under the per-cycle checks."""
    scenario = Experiment.from_spec("smoke").materialize()
    mover = _MigrateOnce(default_policy_factory(scenario), at=900.0)
    runner = _MigrationProbe(scenario, mover)
    result = runner.run()
    assert runner.checked_cycles == result.cycles > 0

    move = mover.moved
    assert move is not None, "no running job could be moved"
    assert result.action_log.migrations == 1
    running = JobPhase.RUNNING
    assert runner.samples == {
        "enacted": (running, move.dst, 0.0),
        "paused": (running, move.dst, 0.0),
        "before": (running, move.dst, 0.0),
        "after": (running, move.dst, move.cpu_mhz),
    }
