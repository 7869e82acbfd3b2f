"""Differential validation: greedy heuristic vs the exact MILP backend.

On randomized small instances both backends must produce feasible
solutions (the shared :func:`assert_solution_feasible` contract), and
the MILP objective must dominate the greedy one: every greedy solution
is feasible for the exact model (its constraint set is the
work-conserving envelope of the heuristic's reachable states), so an
optimal answer below the greedy objective is a formulation bug.

The MILP runs with ``change_penalty_mhz=0`` so the objectives compare
pure satisfied demand; HiGHS's relative MIP gap (1e-6) and extraction
rounding motivate the small epsilon.

Every generated instance carries at least one zero-demand job
(``target_rate=0.0``): those degenerate columns historically crashed the
MILP backend via a HiGHS presolve bug, so the strategy pins them into
the search space rather than waiting for :func:`solver_inputs` to
stumble on one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SolverConfig
from repro.core import JobRequest, make_oracle
from repro.core.backends import make_solver

from ..helpers import assert_solution_feasible, solution_objective

from .test_placement_invariants import solver_inputs


@st.composite
def small_instances(draw, max_nodes: int = 4, max_jobs: int = 8):
    """Like :func:`solver_inputs` but sized for exact solving.

    Always appends one zero-demand job so every example exercises the
    degenerate big-M columns; it joins as a running incumbent on a
    memory-feasible node when one exists (covering eviction/churn
    interplay), otherwise as a waiting arrival.
    """
    nodes, apps, jobs, lr_target, budget = draw(solver_inputs())
    nodes, jobs = nodes[:max_nodes], jobs[: max_jobs - 1]
    zero_mem = 600.0
    homes = [
        n.node_id
        for n in nodes
        if sum(j.memory_mb for j in jobs if j.current_node == n.node_id)
        + zero_mem
        <= n.memory_mb
    ]
    home = None
    if homes and draw(st.booleans()):
        home = draw(st.sampled_from(homes))
    jobs = jobs + [
        JobRequest(
            job_id="jz",
            vm_id="vm-jz",
            target_rate=0.0,
            speed_cap=1500.0,
            memory_mb=zero_mem,
            current_node=home,
            was_suspended=False,
            submit_time=0.0,
        )
    ]
    return nodes, apps, jobs, lr_target, budget


def _objectives(nodes, apps, jobs, lr_target, budget):
    """(greedy, milp) satisfied demand, each solution checked feasible.

    min_job_rate=0 on both sides: the greedy's eviction path may admit
    below the floor (it inherits the freed node's residual), so the
    floor must be off for the dominance relation to be exact.  The
    floor semantics themselves are unit-tested in
    tests/unit/test_core_milp_solver.py.  The MILP is the controller's
    optimality oracle (:func:`make_oracle`), which also drops the change
    penalty so objectives compare pure satisfied demand.
    """
    greedy = SolverConfig(change_budget=budget, min_job_rate=0.0)
    objectives = []
    for solver in (make_solver(greedy), make_oracle(greedy, "milp")):
        solution = solver.solve(nodes, apps, jobs, lr_target=lr_target)
        assert_solution_feasible(
            solution, nodes, jobs=jobs, apps=apps, budget=budget
        )
        objectives.append(solution_objective(solution))
    return objectives


@given(small_instances())
@settings(max_examples=40, deadline=None)
def test_milp_dominates_greedy_on_small_instances(inputs):
    greedy_obj, milp_obj = _objectives(*inputs)
    eps = 1e-4 * max(greedy_obj, 1.0)
    assert milp_obj >= greedy_obj - eps, (
        f"optimal backend below heuristic: milp={milp_obj:.3f} "
        f"greedy={greedy_obj:.3f}"
    )


@pytest.mark.slow
@given(solver_inputs())
@settings(max_examples=60, deadline=None)
def test_milp_dominates_greedy_full_size(inputs):
    """The heavier sweep: up to 6 nodes and the full job range."""
    nodes, apps, jobs, lr_target, budget = inputs
    jobs = jobs[:12]  # keep branch-and-bound tractable per example
    greedy_obj, milp_obj = _objectives(nodes, apps, jobs, lr_target, budget)
    eps = 1e-4 * max(greedy_obj, 1.0)
    assert milp_obj >= greedy_obj - eps
