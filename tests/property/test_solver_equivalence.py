"""Optimized greedy solver == seed greedy solver, bit for bit.

The indexed-placement / vectorized-hot-path rework is a pure performance
change: deterministic tie-breaks are a documented contract, so the
optimized :class:`repro.core.placement_solver.PlacementSolver` must
return *byte-identical* solutions to the frozen seed implementation
(``tests/property/reference_solver.py``) on any input.  Randomized
instances here sweep admission, eviction, migration, boost and web
placement; the MILP differential harness separately validates
feasibility.

"Identical" includes order: the placement's entry insertion order, each
node's entry order and the order of the rate and allocation maps.  They
fix the order of float sums downstream -- the per-node CPU totals that
``ResilientController._last_known_good`` scales on a brownout, and the
satisfied demand the runner records.  A placement's per-node CPU and
memory totals are fresh left-to-right sums over the node's entries in
row order, so each must equal that sum over the reference's entries.
"""

import functools
import operator
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.node import NodeSpec
from repro.config import SolverConfig
from repro.core import AppRequest, JobRequest, PlacementSolver

sys.path.insert(0, str(Path(__file__).parent))
import reference_solver  # noqa: E402  (frozen seed copy, local import)


def _random_instance(rng: np.random.Generator):
    n_nodes = int(rng.integers(2, 30))
    n_jobs = int(rng.integers(0, 120))
    n_apps = int(rng.integers(0, 4))
    nodes = [
        NodeSpec(
            node_id=f"n{i:03d}",
            processors=int(rng.choice([2, 4])),
            mhz_per_processor=float(rng.choice([2000.0, 3000.0, 4000.0])),
            memory_mb=float(rng.choice([4000.0, 8000.0])),
        )
        for i in range(n_nodes)
    ]
    node_ids = [n.node_id for n in nodes]
    mem_cap = {n.node_id: n.memory_mb for n in nodes}

    apps = []
    used: dict[str, float] = {}
    for a in range(n_apps):
        count = int(rng.integers(0, min(4, n_nodes)))
        current_nodes = frozenset(
            str(x) for x in rng.choice(node_ids, size=count, replace=False)
        )
        for node_id in current_nodes:
            # Running instances reserve memory up front; count it so the
            # generated retained jobs stay feasible (solver precondition).
            used[node_id] = used.get(node_id, 0.0) + 400.0
        apps.append(
            AppRequest(
                app_id=f"app{a}",
                target_allocation=float(rng.uniform(0.0, 30000.0)),
                instance_memory_mb=400.0,
                min_instances=1,
                max_instances=n_nodes,
                current_nodes=current_nodes,
            )
        )

    jobs = []
    for j in range(n_jobs):
        mem = float(rng.choice([400.0, 1200.0, 2000.0]))
        current = str(rng.choice(node_ids)) if rng.random() < 0.5 else None
        if current is not None:
            # Retained jobs must fit their host (inherited feasibility).
            if used.get(current, 0.0) + mem > mem_cap[current]:
                current = None
            else:
                used[current] = used.get(current, 0.0) + mem
        jobs.append(
            JobRequest(
                job_id=f"j{j:04d}",
                vm_id=f"vm{j:04d}",
                target_rate=float(rng.uniform(0.0, 4000.0)),
                speed_cap=float(rng.uniform(500.0, 4000.0)),
                memory_mb=mem,
                current_node=current,
                was_suspended=bool(rng.random() < 0.2),
                submit_time=float(rng.uniform(0.0, 1e5)),
                remaining_work=float(rng.uniform(0.0, 1e8)),
            )
        )

    lr_target = float(rng.uniform(0.0, 50000.0)) if rng.random() < 0.8 else None
    config = SolverConfig(
        eviction_margin=float(rng.choice([0.0, 0.25, 0.5])),
        max_evictions=int(rng.choice([0, 2, 8])),
        max_migrations=int(rng.choice([0, 2, 8])),
        change_budget=(None if rng.random() < 0.5 else int(rng.integers(0, 30))),
    )
    return nodes, apps, jobs, lr_target, config


def _left_sum(values):
    return functools.reduce(operator.add, values, 0.0)


def _node_sums(placement, entries_from=None):
    """Per node: ``(cpu_used, memory_used)`` of ``placement``, or with
    ``entries_from``, that placement's entries on the node summed left
    to right."""
    source = placement if entries_from is None else entries_from
    sums = {}
    for node_id in sorted({e.node_id for e in source}):
        if entries_from is None:
            sums[node_id] = (placement.cpu_used(node_id), placement.memory_used(node_id))
        else:
            entries = entries_from.entries_on(node_id)
            sums[node_id] = (
                _left_sum(e.cpu_mhz for e in entries),
                _left_sum(e.memory_mb for e in entries),
            )
    return {node: (cpu.hex(), mem.hex()) for node, (cpu, mem) in sums.items()}


def _solution_tuple(solution):
    placement = solution.placement
    entries = [
        (e.vm_id, e.node_id, e.cpu_mhz, e.memory_mb, e.kind) for e in placement
    ]
    by_node = [
        (node_id, [e.vm_id for e in placement.entries_on(node_id)])
        for node_id in sorted({e.node_id for e in placement})
    ]
    return (
        entries,
        by_node,
        list(solution.job_rates.items()),
        list(solution.app_allocations.items()),
        solution.deferred_jobs,
        solution.unplaced_jobs,
        solution.evicted_jobs,
        solution.migrated_jobs,
        solution.started_instances,
        solution.stopped_instances,
        solution.changes,
    )


def _solve_or_error(solver, nodes, apps, jobs, lr_target):
    """The solution, or the exception both solvers must agree on.

    The seed solver has float-dust edges (e.g. a -1e-13 residual turned
    web grant) that raise; equivalence then means raising the *same*
    error, not avoiding it.
    """
    try:
        return solver.solve(nodes, apps, jobs, lr_target=lr_target)
    except Exception as exc:  # noqa: BLE001 - compared verbatim below
        return (type(exc).__name__, str(exc))


def _assert_equivalent(new, ref):
    """``new`` equals the reference solution ``ref`` bit for bit, and its
    per-node totals equal left-to-right sums of ``ref``'s entries."""
    if isinstance(ref, tuple) or isinstance(new, tuple):
        assert new == ref
        return
    # Placements compare bit-for-bit: grants are floats, == is exact.
    assert _solution_tuple(new) == _solution_tuple(ref)
    assert _node_sums(new.placement) == _node_sums(
        new.placement, entries_from=ref.placement
    )


@pytest.mark.parametrize("seed", range(60))
def test_randomized_equivalence_with_seed_solver(seed):
    rng = np.random.default_rng(seed)
    nodes, apps, jobs, lr_target, config = _random_instance(rng)

    new = _solve_or_error(PlacementSolver(config), nodes, apps, jobs, lr_target)
    ref = _solve_or_error(
        reference_solver.PlacementSolver(config), nodes, apps, jobs, lr_target
    )
    _assert_equivalent(new, ref)


def _scale_instance(rng: np.random.Generator):
    """A scale-1000-shaped cycle, cut to 240 nodes: 1,600 jobs (half
    retained, the rest queued past the free memory slots), an app with 192
    instances next to one with 12, CPU-contended nodes and a long-running
    share to boost."""
    n_nodes, n_jobs = 240, 1600
    nodes = [
        NodeSpec(node_id=f"n{i:04d}", processors=2, mhz_per_processor=3000.0,
                 memory_mb=4000.0)
        for i in range(n_nodes)
    ]
    node_ids = [n.node_id for n in nodes]
    capacity = n_nodes * 6000.0
    used: dict[str, float] = {}
    apps = []
    for a, (count, share) in enumerate([(192, 0.45), (12, 0.02)]):
        current = frozenset(
            str(x) for x in rng.choice(node_ids, size=count, replace=False)
        )
        for node_id in current:
            used[node_id] = used.get(node_id, 0.0) + 400.0
        apps.append(
            AppRequest(
                app_id=f"app{a}",
                target_allocation=share * capacity,
                instance_memory_mb=400.0,
                min_instances=1,
                max_instances=n_nodes,
                current_nodes=current,
            )
        )
    jobs = []
    for j in range(n_jobs):
        mem = float(rng.choice([1200.0, 1200.0, 2000.0]))
        current = str(rng.choice(node_ids)) if rng.random() < 0.5 else None
        if current is not None:
            if used.get(current, 0.0) + mem > 4000.0:
                current = None
            else:
                used[current] = used.get(current, 0.0) + mem
        jobs.append(
            JobRequest(
                job_id=f"job{j}",
                vm_id=f"vm-job{j}",
                target_rate=float(rng.uniform(0.0, 3000.0)),
                speed_cap=3000.0,
                memory_mb=mem,
                current_node=current,
                was_suspended=current is None and bool(rng.random() < 0.5),
                submit_time=float(rng.uniform(0.0, 1e5)),
                remaining_work=float(rng.uniform(0.0, 2e7)),
            )
        )
    config = SolverConfig(eviction_margin=0.25, max_evictions=8, max_migrations=8)
    return nodes, apps, jobs, 0.5 * capacity, config


def test_scale_shaped_equivalence():
    """Hundreds of nodes and instances: the vectorized node queries and
    the per-node grant loops at a size the small random instances miss."""
    nodes, apps, jobs, lr_target, config = _scale_instance(np.random.default_rng(0))
    new = PlacementSolver(config).solve(nodes, apps, jobs, lr_target=lr_target)
    ref = reference_solver.PlacementSolver(config).solve(
        nodes, apps, jobs, lr_target=lr_target
    )
    _assert_equivalent(new, ref)
    # The instance exercises every phase that changes the placement.
    assert len(new.job_rates) > 500 and len(new.unplaced_jobs) > 500
    assert new.evicted_jobs and new.started_instances and new.stopped_instances


def test_eviction_heavy_equivalence():
    """Memory-saturated node, urgent arrivals: exercises the victim index."""
    nodes = [
        NodeSpec(node_id=f"n{i}", processors=2, mhz_per_processor=3000.0,
                 memory_mb=4000.0)
        for i in range(3)
    ]

    def job(j, target, current=None, remaining=1e9):
        return JobRequest(
            job_id=f"j{j}", vm_id=f"vm{j}", target_rate=target,
            speed_cap=3000.0, memory_mb=1200.0, current_node=current,
            was_suspended=current is None, submit_time=float(j),
            remaining_work=remaining,
        )

    # Nodes full of low-urgency runners, plus very urgent waiters.
    jobs = [job(j, 200.0 + j, current=f"n{j % 3}") for j in range(9)]
    jobs += [job(10 + j, 3000.0 - j) for j in range(6)]
    config = SolverConfig(eviction_margin=0.1, max_evictions=4)

    new = PlacementSolver(config).solve(nodes, [], jobs, lr_target=None)
    ref = reference_solver.PlacementSolver(config).solve(
        nodes, [], jobs, lr_target=None
    )
    assert new.evicted_jobs == ref.evicted_jobs
    _assert_equivalent(new, ref)
    assert new.evicted_jobs  # the scenario actually evicts


def test_water_fill_large_population_bit_identical():
    """The argsort fast path (n >= 128) must not change a single bit."""
    from repro.core import water_fill

    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(128, 400))
        targets = [float(x) for x in rng.uniform(0.0, 5000.0, size=n)]
        # Inject ties to exercise the stable-order contract.
        for k in range(0, n - 1, 7):
            targets[k + 1] = targets[k]
        capacity = float(rng.uniform(0.0, 0.8 * sum(targets)))
        assert water_fill(targets, capacity) == reference_solver.water_fill(
            targets, capacity
        ), f"trial {trial}"
