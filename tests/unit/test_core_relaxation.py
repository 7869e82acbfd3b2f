"""Unit tests for the optimality bound behind the exact oracle.

The oracle re-solves a cycle with the MILP relaxed to ``min_job_rate=0``
and no change penalty (:func:`repro.core.make_oracle`), so its satisfied
demand bounds every solution the production solver can emit; the gap is
:func:`repro.core.optimality_gap`.
"""

import pytest

from repro.config import SolverConfig
from repro.core import JobRequest, PlacementSolver, make_oracle, optimality_gap
from repro.core.job_scheduler import AppRequest

from ..conftest import make_node


def job(job_id: str, target: float, mem: float = 1200.0) -> JobRequest:
    return JobRequest(
        job_id=job_id, vm_id=f"vm-{job_id}", target_rate=target,
        speed_cap=3000.0, memory_mb=mem, current_node=None,
        was_suspended=False, submit_time=0.0, remaining_work=1e7,
    )


def web(target: float) -> list[AppRequest]:
    if target <= 0:
        return []
    return [AppRequest(
        app_id="web", target_allocation=target, instance_memory_mb=400.0,
        min_instances=1, max_instances=3, current_nodes=frozenset(),
    )]


def bound(nodes, jobs, web_target: float):
    """(total, job part, web part) of the oracle's optimum, in MHz."""
    solution = make_oracle(SolverConfig(), "milp").solve(
        nodes, web(web_target), jobs
    )
    job_part = sum(solution.job_rates.values())
    web_part = sum(solution.app_allocations.values())
    return job_part + web_part, job_part, web_part


class TestUpperBound:
    def test_unconstrained_bound_is_total_demand(self):
        nodes = [make_node("n0"), make_node("n1")]
        jobs = [job("a", 2000.0), job("b", 1000.0)]
        total, job_part, web_part = bound(nodes, jobs, web_target=5000.0)
        assert total == pytest.approx(8000.0, rel=1e-6)
        assert job_part == pytest.approx(3000.0, rel=1e-6)
        assert web_part == pytest.approx(5000.0, rel=1e-6)

    def test_cpu_constraint_binds(self):
        nodes = [make_node("n0", procs=1)]  # 3000 MHz
        jobs = [job("a", 3000.0), job("b", 3000.0)]
        total, _, _ = bound(nodes, jobs, web_target=0.0)
        assert total == pytest.approx(3000.0, rel=1e-6)

    def test_memory_constraint_binds(self):
        nodes = [make_node("n0")]  # 4000 MB, 12000 MHz
        jobs = [job(f"j{i}", 1000.0, mem=1600.0) for i in range(5)]
        # Integral memory: only two 1600 MB jobs fit in 4000 MB.
        total, _, _ = bound(nodes, jobs, web_target=0.0)
        assert total == pytest.approx(2000.0, rel=1e-6)

    def test_no_jobs_web_only(self):
        nodes = [make_node("n0")]
        total, _, _ = bound(nodes, [], web_target=20_000.0)
        assert total == pytest.approx(12_000.0, rel=1e-6)

    def test_bound_dominates_integral_solver(self):
        nodes = [make_node(f"n{i}") for i in range(3)]
        jobs = [job(f"j{i:02d}", 1500.0 + 130.0 * (i % 7)) for i in range(12)]
        solution = PlacementSolver().solve(nodes, web(15_000.0), jobs)
        satisfied = solution.satisfied_lr_demand + solution.satisfied_tx_demand
        total, _, _ = bound(nodes, jobs, web_target=15_000.0)
        assert satisfied <= total * (1 + 1e-9)
        # The greedy heuristic should be close to the optimum here.
        assert optimality_gap(satisfied, total) < 0.1

    def test_gap_helper(self):
        assert optimality_gap(100.0, 100.0) == 0.0
        assert optimality_gap(90.0, 100.0) == pytest.approx(0.1)
        assert optimality_gap(110.0, 100.0) == 0.0  # clamped
        assert optimality_gap(5.0, 0.0) == 0.0  # empty instance
