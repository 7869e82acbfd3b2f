"""The gates this code leans on report the defects they exist to catch.

Each test plants one defect in-process with ``monkeypatch`` and checks
that the gate fails on it, and how:

* the solver equivalence suite (``tests/property/test_solver_equivalence.py``)
  sees a grant moved by one ulp in either retention pass;
* the arbiter differential (``tests/property/test_arbiter_differential.py``)
  sees a replay that skips one midpoint no probe settled, and a
  prediction trusted over an aggregate whose utility is not monotone
  (an app's share planted to drop at its ceiling);
* :class:`CheckedRunner` (``test_cycle_invariants.py``) names the
  invariant a planted bookkeeping bug breaks -- a host off its entry, an
  entry left on a failed node, a missing instance, work lost by a
  skipped advance, a stale completion event, a live-job handle that
  drops or swaps a row -- also one that a node failure's handler leaves
  for the next decision to heal;
* the feasibility guard (:class:`~repro.core.resilient.ResilientController`)
  degrades a cycle whose solver overcommits one node by one ulp past the
  tolerance, naming the node, and without the guard the runner's
  ``Placement.validate`` raises the same text;
* strict mode (``tests/conftest.py``) fails a test whose run falls back,
  also when the run happens in a sweep's worker process;
* the golden gate's ``regen.compare`` names a changed action count and
  a completion time moved past its tolerance;
* perfbench's ``outcome_digest`` changes when one simulated sample moves
  by one ulp or a summary metric changes, and not when a wall-clock
  series does.

No test edits a gate, its bounds or its data.
"""

import copy
import importlib.util
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Experiment
from repro.cluster.node import FIT_TOLERANCE, NodeTable
from repro.cluster.placement import Placement, parse_instance_vm_id
from repro.core import PlacementSolver, TransactionalCurve
from repro.core import arbiter as arbiter_module
from repro.core import placement_solver
from repro.core.resilient import ResilientController
from repro.errors import PlacementError
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentRunner,
    default_policy_factory,
    run_scenario,
)
from repro.experiments.scenario import NodeFailure
from repro.experiments.sweeps import SweepPointError, default_metrics, run_sweep
from repro.sim.recorder import Series
from repro.workloads.jobs import JobTable

from tests.golden import regen
from tests.integration.test_cycle_invariants import run_checked
from tests.property import test_arbiter_differential as arbiter_differential
from tests.property import test_solver_equivalence as equivalence

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


# ----------------------------------------------------------------------
# Solver equivalence
# ----------------------------------------------------------------------
def _nudge_first_grant(monkeypatch, name):
    original = getattr(placement_solver, name)
    calls = []

    def nudged(*args):
        granted = original(*args)
        granted[0] = float(np.nextafter(granted[0], np.inf))
        calls.append(len(granted))
        return granted

    monkeypatch.setattr(placement_solver, name, nudged)
    return calls


@pytest.mark.parametrize(
    "name, instance",
    [
        ("_retain_scalar", lambda: equivalence._random_instance(np.random.default_rng(0))),
        ("_retain_vector", lambda: equivalence._scale_instance(np.random.default_rng(0))),
    ],
    ids=["scalar-pass", "vector-pass"],
)
def test_equivalence_sees_one_ulp_in_a_retained_grant(monkeypatch, name, instance):
    nodes, apps, jobs, lr_target, config = instance()
    assert any(job.current_node is not None for job in jobs)
    reference = equivalence.reference_solver.PlacementSolver(config).solve(
        nodes, apps, jobs, lr_target=lr_target
    )
    solve = PlacementSolver(config).solve
    assert equivalence._solution_tuple(
        solve(nodes, apps, jobs, lr_target=lr_target)
    ) == equivalence._solution_tuple(reference)

    calls = _nudge_first_grant(monkeypatch, name)
    planted = solve(nodes, apps, jobs, lr_target=lr_target)
    assert calls, f"{name} did not run"
    assert equivalence._solution_tuple(planted) != equivalence._solution_tuple(reference)


# ----------------------------------------------------------------------
# Arbiter differential
# ----------------------------------------------------------------------
def test_arbiter_differential_sees_a_skipped_midpoint(monkeypatch):
    """A replay that lets the first midpoint no probe settled go right
    without its probe returns another split than the plain bisection."""
    cases = arbiter_differential.capture_splits("chaos-soak")
    assert arbiter_differential.mismatches(cases) == []

    settled = arbiter_module._Probes.settled
    skipped = []

    def skipping(probes, a):
        side = settled(probes, a)
        if side is None and not any(p is probes for p in skipped):
            skipped.append(probes)
            return True
        return side

    monkeypatch.setattr(arbiter_module._Probes, "settled", skipping)
    assert arbiter_differential.mismatches(cases)
    assert skipped


def test_arbiter_differential_sees_a_prediction_over_a_non_monotone_aggregate(
    monkeypatch,
):
    """Under an ``rt_tolerance`` below the default, an app's allocation
    planted to drop at its ceiling (to its model's demand at the default
    5% tolerance, as it once did) makes the aggregate's utility fall
    there; the aggregate still inverts, and its prediction steers the
    replay off the plain bisection."""
    run = arbiter_differential.CAPTURED["multi-app-rt-tolerance-0.01"]
    cases = arbiter_differential.capture_splits(*run)
    assert arbiter_differential.mismatches(cases) == []

    def dropping(curve, target):  # the planted defect
        return min(
            curve._utility.allocation_for_utility(curve._model, target), curve._demand
        )

    monkeypatch.setattr(TransactionalCurve, "allocation_for_utility", dropping)
    assert arbiter_differential.mismatches(cases)


# ----------------------------------------------------------------------
# CheckedRunner
# ----------------------------------------------------------------------
def _after_cycle(monkeypatch, cycle, defect):
    """Run ``defect(runner, t)`` right after the base runner's control
    cycle number ``cycle``, before CheckedRunner's checks of that cycle."""
    original = ExperimentRunner._control_cycle

    def planted(runner, t):
        original(runner, t)
        if runner._cycles == cycle:
            defect(runner, t)

    monkeypatch.setattr(ExperimentRunner, "_control_cycle", planted)


def _smoke():
    return Experiment.from_spec("smoke").materialize()


def test_checked_runner_sees_a_job_off_its_entry(monkeypatch):
    def move_host(runner, t):
        job = next(j for j in runner._live_jobs() if j.node_id is not None)
        others = [n for n in runner._cluster.node_ids if n != job.node_id]
        job._node_id = others[0]

    _after_cycle(monkeypatch, 3, move_host)
    with pytest.raises(AssertionError, match=r"is on node\d+, placed on node\d+"):
        run_checked(_smoke())


def test_checked_runner_sees_an_entry_left_on_a_failed_node(monkeypatch):
    original_fail = ExperimentRunner._fail_node
    original_remove = Placement.remove

    def fail_keeping_entries(runner, t, node_id):
        monkeypatch.setattr(Placement, "remove", lambda placement, vm_id: None)
        try:
            original_fail(runner, t, node_id)
        finally:
            monkeypatch.setattr(Placement, "remove", original_remove)

    def fail_a_busy_node(runner, t):
        busy = next(j.node_id for j in runner._live_jobs() if j.node_id is not None)
        fail_keeping_entries(runner, t, busy)

    _after_cycle(monkeypatch, 3, fail_a_busy_node)
    with pytest.raises(AssertionError, match=r"is suspended but placed=True"):
        run_checked(_smoke())


def test_checked_runner_sees_an_instance_missing_from_the_placement(monkeypatch):
    def drop_instance(runner, t):
        vm_id = next(
            entry.vm_id
            for entry in runner._placement
            if parse_instance_vm_id(entry.vm_id) is not None
        )
        runner._placement.remove(vm_id)

    _after_cycle(monkeypatch, 3, drop_instance)
    with pytest.raises(AssertionError, match="webapp instances disagree with the placement"):
        run_checked(_smoke())


def _once_after_a_cycle(monkeypatch, defect):
    """Run ``defect(runner, t)`` after each base control cycle, before
    CheckedRunner's checks, until it returns True."""
    original = ExperimentRunner._control_cycle
    done = []

    def planted(runner, t):
        original(runner, t)
        if not done and defect(runner, t):
            done.append(t)

    monkeypatch.setattr(ExperimentRunner, "_control_cycle", planted)
    return done


def test_checked_runner_sees_work_lost_by_a_skipped_advance(monkeypatch):
    """One advance that moves a running job's remaining work but skips
    its CPU-time integral breaks work conservation."""
    original = JobTable.advance
    skipped = []

    def skipping(table, rows, t):
        if skipped or not len(rows) or t < 1_000.0:
            return original(table, rows, t)
        row = rows.item(0)
        integral = table.cpu_integral.item(row)
        original(table, rows, t)
        if table.cpu_integral.item(row) != integral:
            table.cpu_integral[row] = integral  # the planted defect
            skipped.append(table.job_ids[row])
        return None

    monkeypatch.setattr(JobTable, "advance", skipping)
    with pytest.raises(AssertionError, match=r"accounts for \S+ of \S+ MHz·s"):
        run_checked(_smoke())
    assert skipped


def test_checked_runner_sees_a_stale_completion_event(monkeypatch):
    """A completion event that stays in the queue after the registry
    dropped it -- a later cancel would miss it -- fails the event-registry
    check."""

    def forget_one(runner, t):
        if not runner._completion_events:
            return False
        job_id = next(iter(runner._completion_events))
        del runner._completion_events[job_id]  # the event stays queued
        return True

    done = _once_after_a_cycle(monkeypatch, forget_one)
    with pytest.raises(AssertionError, match=r"t=\S+: completion registry"):
        run_checked(_smoke())
    assert done


@pytest.mark.parametrize("at", [1_000.0, 1_200.0])
def test_checked_runner_checks_right_after_a_node_failure(monkeypatch, at):
    """A failure handler that only marks the node failed -- no suspend,
    no evacuation, no entry removal -- is caught at the failure, before
    the next decision rebuilds the placement around it."""

    def mark_only(runner, t, node_id):
        runner._cluster.fail_node(node_id)

    monkeypatch.setattr(ExperimentRunner, "_fail_node", mark_only)
    scenario = _smoke().with_failures([NodeFailure(at=at, node_id="node000")])
    with pytest.raises(
        AssertionError, match=rf"t={at}: \S+ is placed on node000, which is not active"
    ):
        run_checked(scenario)


@pytest.mark.parametrize(
    "defect",
    [
        pytest.param(lambda at: at[:-1], id="drop"),
        pytest.param(lambda at: np.concatenate([at[1::-1], at[2:]]), id="swap"),
    ],
)
def test_checked_runner_sees_a_live_handle_that_drops_or_swaps_a_row(
    monkeypatch, defect
):
    """A live-job handle that loses its last row, or swaps its first
    two, no longer hands ``decide()`` the live set in trace order."""
    original = ExperimentRunner._live_jobs

    def planted(runner):
        jobs = original(runner)
        return jobs.take(defect(np.arange(len(jobs)))) if len(jobs) > 1 else jobs

    monkeypatch.setattr(ExperimentRunner, "_live_jobs", planted)
    with pytest.raises(
        AssertionError, match=r"decide\(\) got \d+ jobs, not the live trace-order set"
    ):
        run_checked(_smoke())


# ----------------------------------------------------------------------
# The feasibility guard and the runner's check
# ----------------------------------------------------------------------
def _overcommit(placement, nodes):
    """Grow the last entry on the placement's first host until that
    node's CPU sum is one ulp past ``Placement.violation``'s tolerance;
    returns the host."""
    eps = FIT_TOLERANCE
    node_id = next(iter(placement)).node_id
    capacity = NodeTable.of(nodes).by_id[node_id].cpu_capacity
    target = math.nextafter(capacity * (1 + eps) + eps, math.inf)
    vm_id = placement.entries_on(node_id)[-1].vm_id
    cpu = placement.entry(vm_id).cpu_mhz + (target - placement.cpu_used(node_id))
    for _ in range(64):
        placement.update_cpu(vm_id, cpu)
        used = placement.cpu_used(node_id)
        if used == target:
            return node_id
        cpu = math.nextafter(cpu, math.inf if used < target else -math.inf)
    raise AssertionError(f"could not land {node_id}'s CPU sum on {target!r}")


def _plant_an_overcommit(monkeypatch):
    """The first solve that places anything overcommits one node."""
    original = PlacementSolver.solve
    planted = []

    def solve(solver, nodes, *args, **kwargs):
        solution = original(solver, nodes, *args, **kwargs)
        if not planted and len(solution.placement):
            planted.append(_overcommit(solution.placement, nodes))
        return solution

    monkeypatch.setattr(PlacementSolver, "solve", solve)
    return planted


@pytest.mark.allow_fallback  # the guard degrades the planted cycle
def test_guard_and_validate_report_a_one_ulp_overcommit(monkeypatch):
    """The guard degrades the planted cycle with ``fallback:infeasible``,
    naming the node; with the guard off, the runner's
    ``Placement.validate`` raises the same text."""
    planted = _plant_an_overcommit(monkeypatch)
    causes = []
    degrade = ResilientController._degrade

    def spying(controller, t, nodes, current, reason, cause):
        causes.append((reason, cause))
        return degrade(controller, t, nodes, current, reason, cause)

    monkeypatch.setattr(ResilientController, "_degrade", spying)
    result = run_scenario(_smoke())
    (node_id,) = planted
    assert result.recorder.counter("fallback:infeasible") == 1
    ((reason, cause),) = causes
    assert reason == "infeasible"
    assert re.fullmatch(rf"node {node_id!r} CPU overcommitted: \S+ > \S+ MHz", cause)

    del planted[:]
    unguarded = Experiment.from_spec(
        "smoke", overrides={"controller.resilient": False}
    ).materialize()
    with pytest.raises(PlacementError) as excinfo:
        run_scenario(unguarded)
    assert planted == [node_id]
    assert str(excinfo.value) == cause
    assert len(causes) == 1


# ----------------------------------------------------------------------
# Strict mode
# ----------------------------------------------------------------------
class _RaisingPolicy:
    """The default controller, except that its second ``decide`` raises."""

    def __init__(self, inner):
        self.inner = inner
        self.cycles = 0

    def observe_app(self, app_id, *, load, service_cycles=None):
        self.inner.observe_app(app_id, load=load, service_cycles=service_cycles)

    def decide(self, t, **kwargs):
        self.cycles += 1
        if self.cycles == 2:
            raise RuntimeError("planted failure")
        return self.inner.decide(t, **kwargs)


def _raising_policy_factory(scenario):
    return _RaisingPolicy(default_policy_factory(scenario))


def _smoke_at_seed(seed):
    return Experiment.from_spec("smoke", overrides={"seed": seed}).materialize()


INNER_TEST = """
import pytest

from repro.api import Experiment
from repro.experiments.runner import run_scenario
from tests.integration.test_gates_can_fail import _raising_policy_factory


def _run():
    run_scenario(Experiment.from_spec("smoke").materialize(), _raising_policy_factory)


def test_strict():
    _run()


@pytest.mark.allow_fallback
def test_allowed():
    _run()
"""


@pytest.mark.allow_fallback  # strict mode here would patch the inner runs too
def test_strict_mode_fails_a_run_that_falls_back(pytester):
    """Through ``pytester``: the inner test whose policy raises in
    ``decide`` fails, and the same test marked ``allow_fallback`` passes."""
    pytester.makeconftest(Path(__file__).parents[1].joinpath("conftest.py").read_text())
    pytester.makeini(
        "[pytest]\nmarkers =\n    allow_fallback: the test degrades on purpose\n"
    )
    pytester.makepyfile(test_inner=INNER_TEST)
    result = pytester.runpytest_inprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=1, failed=1)
    result.stdout.fnmatch_lines(
        [
            "E *FallbackFailure: the run fell back: "
            "{'fallback:exception:RuntimeError': 1.0}",
            "FAILED test_inner.py::test_strict - *",
        ]
    )


def test_strict_mode_fails_a_run_in_a_sweep_worker():
    """A run in a worker process falls back: the sweep fails with a
    ``SweepPointError`` naming the grid point and the counters (not a
    pickling error)."""
    with pytest.raises(SweepPointError) as excinfo:
        run_sweep(
            "strict",
            [7, 11],
            _smoke_at_seed,
            default_metrics,
            policy_factory=_raising_policy_factory,
            workers=2,
        )
    message = str(excinfo.value)
    assert "sweep 'strict' failed at grid point 7" in message
    assert "FallbackFailure: the run fell back" in message
    assert "'fallback:exception:RuntimeError': 1.0" in message


# ----------------------------------------------------------------------
# The golden gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_fingerprint(smoke_result):
    fingerprint = regen.fingerprint(smoke_result)
    assert regen.compare(regen.load_golden()["smoke"], fingerprint) == []
    return fingerprint


def _moved(fingerprint, section, key, change):
    moved = copy.deepcopy(fingerprint)
    moved[section][key] = change(moved[section][key])
    return moved


def test_golden_compare_names_a_changed_action_count(smoke_fingerprint):
    moved = _moved(smoke_fingerprint, "actions", "starts", lambda n: n + 1)
    diffs = regen.compare(regen.load_golden()["smoke"], moved)
    assert [d.path for d in diffs] == ["actions.starts"]
    assert "discrete  actions.starts" in regen.explain("smoke", diffs)


def test_golden_compare_names_a_moved_completion_time(smoke_fingerprint):
    job = next(iter(smoke_fingerprint["completions"]))
    golden = regen.load_golden()["smoke"]
    moved = _moved(smoke_fingerprint, "completions", job, lambda t: t * (1 + 1e-8))
    diffs = regen.compare(golden, moved)
    assert [d.path for d in diffs] == [f"completions.{job}"]
    assert f"completions.{job}" in regen.explain("smoke", diffs)
    # Within REL_TOL by design: ulp drift across numpy builds passes.
    within = _moved(smoke_fingerprint, "completions", job, lambda t: t * (1 + 1e-12))
    assert regen.compare(golden, within) == []


# ----------------------------------------------------------------------
# perfbench's outcome digest
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def perfbench_run():
    # Loaded as test_perfbench_tracer.py loads it; run.py imports its
    # sibling ``speed`` module by plain name.
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["perfbench_run"] = module
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def smoke_result():
    return run_scenario(_smoke())


def _nudge_series(monkeypatch, prefix):
    original = Series.to_dict

    def nudged(series):
        data = original(series)
        if series.name.startswith(prefix):
            data["values"][0] = math.nextafter(data["values"][0], math.inf)
        return data

    monkeypatch.setattr(Series, "to_dict", nudged)


def test_digest_sees_one_ulp_in_a_simulated_sample(monkeypatch, perfbench_run, smoke_result):
    before = perfbench_run.outcome_digest(smoke_result)
    _nudge_series(monkeypatch, "lr_utility")
    assert perfbench_run.outcome_digest(smoke_result) != before


def test_digest_sees_a_changed_summary_metric(monkeypatch, perfbench_run, smoke_result):
    before = perfbench_run.outcome_digest(smoke_result)
    summary_metrics = ExperimentResult.summary_metrics

    def one_more_disruptive_action(result):
        metrics = summary_metrics(result)
        metrics["disruptive_actions"] += 1
        return metrics

    monkeypatch.setattr(ExperimentResult, "summary_metrics", one_more_disruptive_action)
    assert perfbench_run.outcome_digest(smoke_result) != before


def test_digest_ignores_wall_clock_series(monkeypatch, perfbench_run, smoke_result):
    assert smoke_result.recorder.has_series("stage_ms:total")
    before = perfbench_run.outcome_digest(smoke_result)
    _nudge_series(monkeypatch, "stage_ms:")
    assert perfbench_run.outcome_digest(smoke_result) == before
