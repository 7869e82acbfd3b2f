"""The gates this code leans on report the defects they exist to catch.

Each test plants one defect in-process with ``monkeypatch`` and checks
that the gate fails on it, and how:

* the solver equivalence suite (``tests/property/test_solver_equivalence.py``)
  sees a grant moved by one ulp in either retention pass;
* :class:`CheckedRunner` (``test_cycle_invariants.py``) names the
  invariant a planted bookkeeping bug breaks;
* perfbench's ``outcome_digest`` changes when one simulated sample moves
  by one ulp, and not when a wall-clock series does.

No test edits a gate, its bounds or its data.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import Experiment
from repro.cluster.placement import Placement, parse_instance_vm_id
from repro.core import PlacementSolver
from repro.core import placement_solver
from repro.experiments.runner import ExperimentRunner, run_scenario
from repro.sim.recorder import Series

from tests.integration.test_cycle_invariants import run_checked
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


def test_digest_ignores_wall_clock_series(monkeypatch, perfbench_run, smoke_result):
    assert smoke_result.recorder.has_series("stage_ms:total")
    before = perfbench_run.outcome_digest(smoke_result)
    _nudge_series(monkeypatch, "stage_ms:")
    assert perfbench_run.outcome_digest(smoke_result) == before
