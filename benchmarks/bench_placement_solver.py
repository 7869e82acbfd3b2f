"""PERF -- placement-solver scaling in nodes x jobs.

Section 2's motivation: explicit schedule search is exponential in the
cluster size; the implemented pipeline is near-linear.  This bench
measures the solver alone across cluster/population sizes; its
optimality gap against the exact MILP is ``bench_solver_backends``.
"""

import numpy as np
import pytest

from repro.cluster import NodeSpec
from repro.core import AppRequest, JobRequest, PlacementSolver

SIZES = {
    "small-10n-30j": (10, 30),
    "paper-25n-150j": (25, 150),
    "large-50n-500j": (50, 500),
    "xl-200n-2000j": (200, 2000),
}


def build_problem(num_nodes: int, num_jobs: int):
    rng = np.random.default_rng(num_nodes * 1000 + num_jobs)
    nodes = [
        NodeSpec(f"n{i:03d}", 4, 3000.0, 4000.0) for i in range(num_nodes)
    ]
    slots_per_node = 3
    jobs = []
    for i in range(num_jobs):
        # About half the jobs already run somewhere feasible.
        node = None
        if i < num_nodes * slots_per_node and rng.uniform() < 0.5:
            node = f"n{i % num_nodes:03d}"
        jobs.append(
            JobRequest(
                job_id=f"j{i:04d}",
                vm_id=f"vm-j{i:04d}",
                target_rate=float(rng.uniform(200.0, 3000.0)),
                speed_cap=3000.0,
                memory_mb=1200.0,
                current_node=node,
                was_suspended=node is None and bool(rng.uniform() < 0.3),
                submit_time=float(i),
                remaining_work=float(rng.uniform(1e6, 45e6)),
            )
        )
    # Cap retained jobs at 3 per node (the runner guarantees this).
    seen: dict[str, int] = {}
    fixed = []
    for request in jobs:
        if request.current_node is not None:
            count = seen.get(request.current_node, 0)
            if count >= slots_per_node:
                request = JobRequest(
                    job_id=request.job_id, vm_id=request.vm_id,
                    target_rate=request.target_rate, speed_cap=request.speed_cap,
                    memory_mb=request.memory_mb, current_node=None,
                    was_suspended=True, submit_time=request.submit_time,
                    remaining_work=request.remaining_work,
                )
            else:
                seen[request.current_node] = count + 1
        fixed.append(request)
    apps = [
        AppRequest(
            app_id="web",
            target_allocation=num_nodes * 12_000.0 * 0.5,
            instance_memory_mb=400.0,
            min_instances=1,
            max_instances=num_nodes,
            current_nodes=frozenset(n.node_id for n in nodes[: num_nodes // 2]),
        )
    ]
    lr_target = num_nodes * 12_000.0 * 0.5
    return nodes, apps, fixed, lr_target


@pytest.mark.parametrize("size_name", list(SIZES))
def test_solver_scaling(benchmark, size_name):
    num_nodes, num_jobs = SIZES[size_name]
    nodes, apps, jobs, lr_target = build_problem(num_nodes, num_jobs)
    solver = PlacementSolver()

    solution = benchmark(lambda: solver.solve(nodes, apps, jobs, lr_target=lr_target))

    granted = solution.satisfied_lr_demand + solution.satisfied_tx_demand
    capacity = num_nodes * 12_000.0
    print(
        f"\n[{size_name}] placed {len(solution.job_rates)}/{num_jobs} jobs, "
        f"granted {granted:.0f}/{capacity:.0f} MHz "
        f"({granted / capacity:.0%}), changes={solution.changes}"
    )
    assert granted > 0.5 * capacity
