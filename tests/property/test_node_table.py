"""The node table's vector passes equal the per-node loops they replaced.

Each test keeps the replaced loop as its reference:

* :meth:`Placement.violation` against the per-node loop it was (dict
  sums over the entries in row order, then each hosting node in the
  order of its first row): the exact return value, message text
  included, on placements with holes left by removals, nodes missing
  from the table (failed or unknown), brownout-derated specs, NaN grants
  and grants one ulp either side of the tolerance -- given the cluster's
  :class:`NodeTable` or a plain node list;
* admission's node query (:meth:`PlacementSolver._best_node_for`)
  against the most-grant scan it was, on random residual columns with
  ties on memory and on grant, on both of its branches;
* :meth:`PlacementSolver._admit` against the admission loop it was:
  leftovers, the node queries its memory bound lets through, entries,
  grants and residuals by ``float.hex``.
"""

import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeSpec, NodeTable
from repro.cluster.placement import Placement, PlacementEntry
from repro.config import SolverConfig
from repro.core.job_scheduler import JobRequest, JobRequests
from repro.core.placement_solver import (
    PlacementSolution,
    PlacementSolver,
    _ClusterState,
    _JobState,
)
from repro.errors import ConfigurationError, PlacementError
from repro.types import WorkloadKind

#: The tolerance the replaced loop applied (frozen with it).
_EPS = 1e-6
LONG = WorkloadKind.LONG_RUNNING


# ----------------------------------------------------------------------
# Placement.violation
# ----------------------------------------------------------------------
def reference_violation(placement, nodes, failed=()):
    """The per-node loop ``Placement.violation`` was."""
    specs = {n.node_id: n for n in nodes}
    cpu_sums: dict[str, float] = {}
    mem_sums: dict[str, float] = {}
    for entry in placement:  # row order
        cpu_sums[entry.node_id] = cpu_sums.get(entry.node_id, 0.0) + entry.cpu_mhz
        mem_sums[entry.node_id] = mem_sums.get(entry.node_id, 0.0) + entry.memory_mb
    for (node_id, cpu), memory in zip(cpu_sums.items(), mem_sums.values()):
        node = specs.get(node_id)
        if node is None:
            state = "failed" if node_id in failed else "unknown"
            return f"placement uses {state} node {node_id!r}"
        if not cpu <= node.cpu_capacity * (1 + _EPS) + _EPS:
            return (
                f"node {node_id!r} CPU overcommitted: "
                f"{cpu:.1f} > {node.cpu_capacity:.1f} MHz"
            )
        if not memory <= node.memory_mb * (1 + _EPS) + _EPS:
            return (
                f"node {node_id!r} memory overcommitted: "
                f"{memory:.1f} > {node.memory_mb:.1f} MB"
            )
    return None


NODES = [
    NodeSpec("n0", 2, 3000.0, 4000.0),
    NodeSpec("n1", 4, 2400.0, 8192.0),
    NodeSpec("n2", 1, 1000.0, 2048.0),
    NodeSpec("n3", 2, 2333.3, 4000.0),
    NodeSpec("n4", 3, 3000, 6144.5),
]
#: Hosts an entry may name: the cluster's nodes and one it never had.
HOSTS = [n.node_id for n in NODES] + ["ghost"]


def _limit(value: float) -> float:
    return value * (1 + _EPS) + _EPS


@st.composite
def clusters(draw):
    """A cluster after random failures and brownouts."""
    cluster = Cluster(NODES)
    for node in NODES:
        health = draw(st.sampled_from(["up", "up", "failed", "brownout"]))
        if health == "failed":
            cluster.fail_node(node.node_id)
        elif health == "brownout":
            cluster.set_brownout(node.node_id, draw(st.floats(0.05, 0.95)))
    return cluster


@st.composite
def amounts(draw, capacity: float):
    """A grant or footprint: any, zero, NaN, or the tolerance's limit for
    ``capacity`` moved by -1, 0 or +1 ulp."""
    kind = draw(st.sampled_from(["any", "any", "zero", "nan", "edge"]))
    if kind == "any":
        return draw(st.floats(0.0, 1.2 * capacity))
    if kind == "zero":
        return 0.0
    if kind == "nan":
        return math.nan
    edge = _limit(capacity)
    return draw(
        st.sampled_from(
            [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
        )
    )


@st.composite
def placements(draw, cluster):
    """A placement built by adds, bulk inserts, removals (holes),
    re-placements and CPU updates, with unchecked entries (NaN allowed)."""
    def spec_of(node_id):
        return cluster.node(node_id if node_id != "ghost" else "n0")

    def entry(vm_id):
        node_id = draw(st.sampled_from(HOSTS))
        spec = spec_of(node_id)
        return PlacementEntry.trusted(
            vm_id,
            node_id,
            draw(amounts(spec.cpu_capacity)),
            draw(amounts(spec.memory_mb)),
            LONG,
        )

    placement = Placement()
    count = draw(st.integers(0, 10))
    for k in range(count):
        placement.add(entry(f"vm{k}"))
    for vm_id in draw(st.lists(st.sampled_from([f"vm{k}" for k in range(count)] or ["-"]), unique=True)):
        if vm_id in placement:
            placement.remove(vm_id)
            if draw(st.booleans()):
                placement.add(entry(vm_id))  # a new row at the end
    for vm_id in draw(st.lists(st.sampled_from(sorted(placement.by_vm()) or ["-"]), unique=True)):
        if vm_id in placement and draw(st.booleans()):
            spec = spec_of(placement.entry(vm_id).node_id)
            cpu = draw(amounts(spec.cpu_capacity))
            if not math.isnan(cpu):
                placement.update_cpu(vm_id, cpu)
    return placement


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_violation_matches_the_per_node_loop(data):
    cluster = data.draw(clusters())
    placement = data.draw(placements(cluster))
    failed = cluster.failed_node_ids
    live = cluster.active_nodes()
    expected = reference_violation(placement, live, failed)
    assert placement.violation(cluster.node_table, failed) == expected
    assert placement.violation(live, failed) == expected
    assert placement.violation(cluster.node_table) == reference_violation(placement, live)
    if expected is None:
        placement.validate(cluster)
    else:
        with pytest.raises(PlacementError) as excinfo:
            placement.validate(cluster)
        assert str(excinfo.value) == expected


@pytest.mark.parametrize("ulps, fits", [(-1, True), (0, True), (1, False)])
@pytest.mark.parametrize("resource", ["cpu", "memory"])
def test_one_ulp_past_the_tolerance_is_over(ulps, fits, resource):
    cluster = Cluster(NODES)
    cluster.set_brownout("n3", 0.37)
    spec = cluster.node("n3")
    capacity = spec.cpu_capacity if resource == "cpu" else spec.memory_mb
    amount = _limit(capacity)
    for _ in range(abs(ulps)):
        amount = math.nextafter(amount, math.copysign(math.inf, ulps))
    cpu, memory = (amount, 1.0) if resource == "cpu" else (1.0, amount)
    placement = Placement([PlacementEntry("vm", "n3", cpu, memory, LONG)])
    violation = placement.violation(cluster.node_table)
    assert violation == reference_violation(placement, cluster.active_nodes())
    assert (violation is None) == fits
    if not fits:
        assert violation.startswith(f"node 'n3' {'CPU' if resource == 'cpu' else 'memory'}")


def test_an_empty_table_reports_the_first_host():
    cluster = Cluster(NODES[:1])
    cluster.fail_node("n0")
    assert len(cluster.node_table) == 0
    placement = Placement([PlacementEntry("vm", "n0", 1.0, 1.0, LONG)])
    assert placement.violation(cluster.node_table, cluster.failed_node_ids) == (
        "placement uses failed node 'n0'"
    )
    assert Placement().violation(cluster.node_table) is None


def test_a_table_rejects_duplicate_ids():
    with pytest.raises(ConfigurationError, match="duplicate node ids"):
        NodeTable([NODES[0], NODES[0]])


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
def reference_best_node_for(
    min_rate: float, want: float, memory: float, cpu: np.ndarray, mem: np.ndarray
) -> Optional[int]:
    """The most-grant scan ``_best_node_for`` was."""
    grant = np.minimum(cpu, want)
    ok = (mem >= memory) & (grant >= min_rate)
    if not ok.any():
        return None
    masked = np.where(ok, grant, -np.inf)
    best = masked.max()
    mem_among_best = np.where(masked == best, mem, np.inf)
    return int(np.argmin(mem_among_best))


class ReferenceAdmission(PlacementSolver):
    """The solver with the admission loop and node scan as they were."""

    def _admit(self, jobs, runnable, state, solution, budget):
        leftover = []
        if not runnable:
            return leftover
        min_rate = self.config.min_job_rate
        requests = jobs.requests
        cpu, mem = state.cpu, state.mem
        cpu_arr, mem_arr = state.arrays()
        max_fit_mem = None
        rows = np.array(runnable, dtype=np.intp)
        for row, target, cap, memory in zip(
            runnable,
            requests.target_rate[rows].tolist(),
            requests.speed_cap[rows].tolist(),
            requests.memory_mb[rows].tolist(),
        ):
            if not self._budget_allows(budget, 1):
                leftover.append(row)
                continue
            if max_fit_mem is None:
                eligible = np.where(cpu_arr >= min_rate, mem_arr, -np.inf)
                max_fit_mem = float(eligible.max()) if eligible.size else -np.inf
            want = min(target, cap)
            if memory > max_fit_mem or want < min_rate:
                leftover.append(row)
                continue
            i = self._best_node_for(want, memory, cpu_arr, mem_arr)
            if i is None:
                leftover.append(row)
                continue
            max_fit_mem = None
            grant = min(target, cap, cpu[i])
            mem[i] -= memory
            cpu[i] -= grant
            cpu_arr[i] = cpu[i]
            mem_arr[i] = mem[i]
            self._place_job(jobs, solution, row, i, state.ids[i], grant)
            self._spend(budget, 1)
            solution.changes += 1
        return leftover

    def _best_node_for(self, want, memory, cpu, mem):
        return reference_best_node_for(self.config.min_job_rate, want, memory, cpu, mem)


#: Residual values with many ties, a float-dust negative among them.
CPU_VALUES = [-1e-14, 0.0, 100.0, 150.0, 600.0, 1500.0, 3000.0, 6000.0]
MEM_VALUES = [0.0, 512.0, 1024.0, 1536.0, 2048.0, 4096.0]
MIN_RATES = [0.0, 150.0]


@st.composite
def residuals(draw, min_size=0):
    n = draw(st.integers(min_size, 12))
    cpu = draw(st.lists(st.sampled_from(CPU_VALUES), min_size=n, max_size=n))
    mem = draw(st.lists(st.sampled_from(MEM_VALUES), min_size=n, max_size=n))
    return np.array(cpu, dtype=float), np.array(mem, dtype=float)


@given(
    residuals(),
    st.sampled_from(MIN_RATES),
    st.sampled_from([0.0, 100.0, 150.0, 600.0, 1500.0, 3000.0, 4500.0, 9000.0]),
    st.sampled_from(MEM_VALUES[1:]),
)
@settings(max_examples=600, deadline=None)
def test_best_node_matches_the_scan(columns, min_rate, want, memory):
    cpu, mem = columns
    solver = PlacementSolver(SolverConfig(min_job_rate=min_rate))
    expected = reference_best_node_for(min_rate, want, memory, cpu, mem)
    assert solver._best_node_for(want, memory, cpu, mem) == expected


@pytest.mark.parametrize(
    "want, expected",
    [
        # Nodes 0, 1 and 3 can grant all 1,500 MHz: the least memory
        # among them is node 3's.
        (1500.0, 3),
        # No node grants 5,000: the most grant is 3,000 (nodes 0, 1 and
        # 3), then the least memory.
        (5000.0, 3),
        # Every node grants 1,000: nodes 2 and 3 tie on memory, and the
        # lower index wins.
        (1000.0, 2),
    ],
)
def test_best_node_breaks_ties_on_both_branches(want, expected):
    cpu = np.array([3000.0, 3000.0, 1000.0, 3000.0])
    mem = np.array([2048.0, 1536.0, 1024.0, 1024.0])
    solver = PlacementSolver(SolverConfig(min_job_rate=150.0))
    assert solver._best_node_for(want, 1024.0, cpu, mem) == expected
    assert reference_best_node_for(150.0, want, 1024.0, cpu, mem) == expected


def _hex(values):
    return [float(v).hex() for v in values]


@st.composite
def admissions(draw):
    cpu, mem = draw(residuals(min_size=1))
    count = draw(st.integers(0, 16))
    requests = JobRequests.of(
        [
            JobRequest(
                job_id=f"j{k:02d}",
                vm_id=f"vm-j{k:02d}",
                target_rate=draw(st.sampled_from([0.0, 100.0, 150.0, 600.0, 1500.0, 4500.0])),
                speed_cap=draw(st.sampled_from([1500.0, 3000.0])),
                memory_mb=draw(st.sampled_from(MEM_VALUES[1:])),
                current_node=None,
                was_suspended=False,
                submit_time=float(k),
            )
            for k in range(count)
        ]
    )
    runnable = draw(st.permutations(range(count)))
    min_rate = draw(st.sampled_from(MIN_RATES))
    budget = draw(st.one_of(st.none(), st.integers(0, 10)))
    return cpu, mem, requests, list(runnable), min_rate, budget


def _admit_with(solver_class, cpu, mem, requests, runnable, min_rate, budget):
    nodes = [NodeSpec(f"n{i:02d}", 1, 1.0, 1.0) for i in range(len(cpu))]
    state = _ClusterState(nodes)
    state.cpu, state.mem = cpu.tolist(), mem.tolist()
    jobs = _JobState(requests, np.full(len(requests), -1, dtype=np.intp))
    solution = PlacementSolution(placement=Placement(), job_rates={}, app_allocations={})
    boxed = [budget]
    solver = solver_class(SolverConfig(min_job_rate=min_rate))
    queries = []
    best_node_for = solver._best_node_for

    def counting(*args):
        queries.append(args[:2])
        return best_node_for(*args)

    solver._best_node_for = counting
    leftover = solver._admit(jobs, runnable, state, solution, boxed)
    return (
        leftover,
        queries,  # the memory bound lets the same requests through
        [
            (e.vm_id, e.node_id, e.cpu_mhz.hex(), e.memory_mb.hex(), e.kind)
            for e in solution.placement
        ],
        list(solution.job_rates),
        _hex(solution.job_rates.values()),
        _hex(state.cpu),
        _hex(state.mem),
        jobs.node.tolist(),
        _hex(jobs.grant),
        solution.changes,
        boxed,
    )


@given(admissions())
@settings(max_examples=300, deadline=None)
def test_admit_matches_the_admission_loop(case):
    assert _admit_with(PlacementSolver, *case) == _admit_with(ReferenceAdmission, *case)
