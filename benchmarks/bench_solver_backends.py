"""PERF -- greedy heuristic vs the exact MILP backend.

Quantifies both sides of the trade the backend registry makes
selectable: the greedy solver's speed and the MILP's optimality.  For
each instance size it reports greedy runtime, MILP runtime, and the
greedy *optimality gap* measured against the true integer optimum.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_solver_backends.py -s``
or standalone ``PYTHONPATH=src python benchmarks/bench_solver_backends.py``.
"""

import time

import numpy as np

from repro.cluster import NodeSpec
from repro.config import SolverConfig
from repro.core import (
    AppRequest,
    JobRequest,
    PlacementSolver,
    make_oracle,
    optimality_gap,
)

#: name -> (nodes, jobs).  Sized so HiGHS branch-and-bound stays in
#: seconds; the greedy handles 200x2000 (see bench_placement_solver).
SIZES = {
    "tiny-2n-6j": (2, 6),
    "small-4n-12j": (4, 12),
    "medium-6n-24j": (6, 24),
    "large-10n-40j": (10, 40),
}


def build_problem(num_nodes: int, num_jobs: int):
    rng = np.random.default_rng(num_nodes * 1000 + num_jobs)
    nodes = [NodeSpec(f"n{i:03d}", 4, 3000.0, 4000.0) for i in range(num_nodes)]
    jobs = []
    seen: dict[str, int] = {}
    for i in range(num_jobs):
        node = None
        candidate = f"n{i % num_nodes:03d}"
        if rng.uniform() < 0.5 and seen.get(candidate, 0) < 3:
            node = candidate
            seen[candidate] = seen.get(candidate, 0) + 1
        jobs.append(
            JobRequest(
                job_id=f"j{i:03d}",
                vm_id=f"vm-j{i:03d}",
                target_rate=float(rng.uniform(200.0, 3000.0)),
                speed_cap=3000.0,
                memory_mb=float(rng.choice([600.0, 1200.0])),
                current_node=node,
                was_suspended=node is None and bool(rng.uniform() < 0.3),
                submit_time=float(i),
            )
        )
    apps = [
        AppRequest(
            app_id="web",
            target_allocation=num_nodes * 12_000.0 * 0.4,
            instance_memory_mb=400.0,
            min_instances=1,
            max_instances=num_nodes,
            current_nodes=frozenset(n.node_id for n in nodes[: num_nodes // 2]),
        )
    ]
    lr_target = num_nodes * 12_000.0 * 0.5
    return nodes, apps, jobs, lr_target


def _timed_solve(solver, nodes, apps, jobs, lr_target):
    t0 = time.perf_counter()
    solution = solver.solve(nodes, apps, jobs, lr_target=lr_target)
    elapsed = time.perf_counter() - t0
    value = solution.satisfied_lr_demand + solution.satisfied_tx_demand
    return elapsed, value


def compare_backends() -> list[dict]:
    """Run both backends over every size; return one row per size."""
    # min_job_rate=0 on both sides: the greedy's eviction path can admit
    # below the floor, which the exact admission-floor constraint
    # forbids -- exact dominance (asserted below) needs the floor off.
    greedy = PlacementSolver(SolverConfig(min_job_rate=0.0))
    milp = make_oracle(SolverConfig(), "milp")
    rows = []
    for name, (num_nodes, num_jobs) in SIZES.items():
        nodes, apps, jobs, lr_target = build_problem(num_nodes, num_jobs)
        greedy_s, g = _timed_solve(greedy, nodes, apps, jobs, lr_target)
        milp_s, m = _timed_solve(milp, nodes, apps, jobs, lr_target)
        row = {
            "size": name,
            "greedy_s": greedy_s,
            "milp_s": milp_s,
            "greedy_mhz": g,
            "milp_mhz": m,
            "gap": optimality_gap(g, m),
        }
        rows.append(row)
    return rows


def render_table(rows: list[dict]) -> str:
    header = (
        f"{'size':>16} {'greedy [ms]':>12} {'milp [ms]':>10} "
        f"{'greedy MHz':>12} {'milp MHz':>12} {'gap':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['size']:>16} {row['greedy_s'] * 1e3:>12.1f} "
            f"{row['milp_s'] * 1e3:>10.1f} "
            f"{row['greedy_mhz']:>12.0f} {row['milp_mhz']:>12.0f} "
            f"{row['gap']:>7.2%}"
        )
    return "\n".join(lines)


def test_backend_comparison_table():
    rows = compare_backends()
    print("\n" + render_table(rows))
    for row in rows:
        # The MILP is the optimum: the greedy can never beat it (beyond
        # solver tolerance), and on these well-conditioned instances the
        # heuristic should stay within a few percent of it.
        assert row["milp_mhz"] >= row["greedy_mhz"] * (1 - 1e-6)
        assert row["gap"] < 0.08, f"{row['size']}: gap {row['gap']:.2%}"


if __name__ == "__main__":
    print(render_table(compare_backends()))
