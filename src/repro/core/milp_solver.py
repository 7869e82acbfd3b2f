"""Optimal placement backend: one control cycle as a mixed-integer program.

The greedy incremental heuristic (:mod:`repro.core.placement_solver`)
trades optimality for speed; this module formulates the *same* cycle
decision exactly and solves it with ``scipy.optimize.milp`` (HiGHS
branch-and-bound).  It serves as a correctness oracle for differential
testing and as the reference against which the heuristic's optimality
gap is measured (see ``benchmarks/bench_solver_backends.py``).

Decision variables, for jobs ``j``, web applications ``a`` and nodes
``n``:

``x[j,n] in {0,1}``
    Job ``j``'s VM is hosted on node ``n`` (each job on at most one node).
``r[j,n] >= 0``
    CPU granted to job ``j`` on node ``n`` (forced to 0 unless
    ``x[j,n] = 1``).
``y[a,n] in {0,1}``
    Application ``a`` runs an instance on node ``n``.
``w[a,n] >= 0``
    CPU granted to ``a``'s instance on ``n`` (forced to 0 unless
    ``y[a,n] = 1``).

Constraints:

* per-node CPU:     ``sum_j r[j,n] + sum_a w[a,n] <= C_n``
* per-node memory:  ``sum_j m_j x[j,n] + sum_a m_a y[a,n] <= M_n``
* single placement: ``sum_n x[j,n] <= 1``
* per-job rate cap and big-M link: ``r[j,n] <= min(u_j, C_n) x[j,n]``
* admission floor: ``sum_n r[j,n] >= min_job_rate * sum_n x[j,n]`` for
  *waiting* jobs -- admitting a job at a sliver wastes a memory slot
  (the greedy's ``min_job_rate`` admission guard).  The greedy's
  eviction path may occasionally admit below the floor (it inherits the
  freed node's residual CPU), so exact-dominance comparisons should set
  ``min_job_rate=0``; see ``tests/property/test_backend_differential.py``
* instance bounds:  ``min_instances' <= sum_n y[a,n] <= max_instances'``
  (primed bounds never force starting or keeping more instances than the
  app already has -- matching the greedy's "never stop below
  ``min_instances``" semantics); with ``stop_idle_instances=False``
  every currently running instance is pinned (``y[a,n] = 1``)
* per-app target:   ``sum_n w[a,n] <= target_allocation_a``
* aggregate job CPU: ``sum_{j,n} r[j,n] <= max(lr_target, sum_j
  min(target_j, cap_j))`` -- the *work-conserving envelope* the greedy's
  boost phase can reach, so every greedy solution stays feasible here
  and the MILP optimum provably dominates it
* change budget: start/suspend/migrate/instance-start/instance-stop
  indicators against the incumbent placement sum to at most
  ``change_budget``
* churn protections: running jobs inside the ``protect_completion``
  window must stay placed (they may still migrate, as in the greedy),
  at most ``max_evictions`` running jobs lose their placement, and at
  most ``max_migrations`` change nodes

``eviction_margin``, ``migration_deficit`` and ``web_start_threshold``
are *ordering heuristics* of the greedy solver (when is a swap, move or
instance start worth considering) and have no exact-formulation
counterpart; the MILP subsumes them with the change penalty and the
caps above.  With ``min_job_rate=0`` every greedy-reachable solution
satisfies all of these constraints, so the MILP optimum provably
dominates the heuristic; with a positive floor, the greedy's
eviction-path sliver admissions (see the admission-floor note above)
are the one family of greedy states the MILP deliberately excludes.

Objective: maximize satisfied demand (``sum r + sum w``) minus
``change_penalty_mhz`` per placement change.

The backend returns the same :class:`~repro.core.placement_solver.PlacementSolution`
as the greedy solver, so the controller, the baselines and the actions
planner are agnostic to which backend produced the cycle's answer.
Select it with ``SolverConfig(backend="milp")``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import optimize, sparse

from ..cluster.node import NodeSpec
from ..cluster.placement import Placement, PlacementEntry
from ..config import SolverConfig
from ..errors import ModelError
from ..types import Mhz, WorkloadKind
from .job_scheduler import AppRequest, JobRequest, order_by_urgency, split_runnable
from .placement_solver import PlacementSolution

#: Binary variables above this value are read as 1.
_ROUND = 0.5
#: Grants below this many MHz are treated as zero.
_MHZ_EPS = 1e-6


class MilpPlacementSolver:
    """Optimal one-cycle placement via mixed-integer programming.

    Drop-in alternative to
    :class:`~repro.core.placement_solver.PlacementSolver`: same ``solve``
    signature, same :class:`PlacementSolution` output, selected through
    ``SolverConfig(backend="milp")``.  Exponentially harder than the
    greedy heuristic in the worst case -- intended for small-to-medium
    instances, oracle testing and optimality-gap measurement, not for
    the 200-node hot path.
    """

    def __init__(self, config: SolverConfig | None = None) -> None:
        self.config = config or SolverConfig()

    # ------------------------------------------------------------------
    def solve(
        self,
        nodes: Sequence[NodeSpec],
        apps: Sequence[AppRequest],
        jobs: Sequence[JobRequest],
        lr_target: Optional[Mhz] = None,
    ) -> PlacementSolution:
        """Compute an optimal feasible placement for one cycle.

        Semantics mirror :meth:`PlacementSolver.solve`: ``nodes`` are the
        active nodes, requests pointing elsewhere are displaced, and
        ``lr_target`` enables the work-conserving boost envelope
        (aggregate job CPU may exceed the sum of per-job targets up to
        speed caps, bounded by the larger of ``lr_target`` and that sum).
        """
        node_list = sorted(nodes, key=lambda n: n.node_id)
        solution = PlacementSolution(
            placement=Placement(), job_rates={}, app_allocations={}
        )
        apps = sorted(apps, key=lambda a: a.app_id)
        if not node_list:
            runnable, deferred = split_runnable(
                order_by_urgency(jobs), self.config.min_job_rate
            )
            solution.deferred_jobs = [r.job_id for r in deferred]
            solution.unplaced_jobs = [r.job_id for r in runnable]
            for app in apps:
                solution.app_allocations[app.app_id] = 0.0
            return solution

        active = {n.node_id for n in node_list}
        running = sorted(
            (r for r in jobs if r.current_node in active),
            key=lambda r: r.job_id,
        )
        waiting = order_by_urgency(
            [r for r in jobs if r.current_node not in active]
        )
        runnable, deferred = split_runnable(waiting, self.config.min_job_rate)
        solution.deferred_jobs = [r.job_id for r in deferred]

        participants = running + runnable
        if not participants and not apps:
            return solution

        model = _build_model(
            node_list,
            apps,
            running,
            runnable,
            lr_target,
            self.config,
        )
        values, solution.milp_retries = _solve_model(model)
        _extract_solution(solution, model, values)
        return solution


def _extract_solution(
    solution: PlacementSolution,
    model: "_Model",
    values: np.ndarray,
) -> None:
    """Translate a flat MIP solution vector into a PlacementSolution.

    ``values`` follows the ``x`` (J*N), ``r`` (J*N), ``y`` (A*N), ``w``
    (A*N) block layout of :func:`_build_model`.
    """
    jobs, apps, nodes = model.jobs, model.apps, model.nodes
    num_nodes = len(nodes)
    x = values[: model.num_x].reshape(len(jobs), num_nodes)
    r = values[model.num_x : 2 * model.num_x].reshape(len(jobs), num_nodes)
    y = values[model.y_off : model.y_off + model.num_y].reshape(
        len(apps), num_nodes
    )
    w = values[model.w_off :].reshape(len(apps), num_nodes)

    # Per-node residual tracking guards against HiGHS feasibility
    # slack (~1e-7) leaking into Placement.validate.
    cpu_left = {n.node_id: float(n.cpu_capacity) for n in nodes}

    running_ids = {req.job_id for req in model.running}
    for j, request in enumerate(jobs):
        hosts = [n for n in range(num_nodes) if x[j, n] > _ROUND]
        if not hosts:
            if request.job_id in running_ids:
                solution.evicted_jobs.append(request.job_id)
            else:
                solution.unplaced_jobs.append(request.job_id)
            continue
        n = hosts[0]
        node_id = nodes[n].node_id
        grant = float(np.clip(r[j, n], 0.0, model.rate_caps[j]))
        grant = min(grant, cpu_left[node_id])
        grant = 0.0 if grant < _MHZ_EPS else grant
        cpu_left[node_id] -= grant
        solution.placement.add(
            PlacementEntry(
                vm_id=request.vm_id,
                node_id=node_id,
                cpu_mhz=grant,
                memory_mb=request.memory_mb,
                kind=WorkloadKind.LONG_RUNNING,
            )
        )
        solution.job_rates[request.job_id] = grant
        if request.job_id in running_ids:
            if node_id != request.current_node:
                solution.migrated_jobs.append(request.job_id)
                solution.changes += 1
        else:
            solution.changes += 1

    # Each eviction costs a suspend now plus a resume later, matching
    # the greedy's accounting of two changes per eviction minus the
    # one already charged to the admitted job -- here the suspend
    # itself is one change.
    solution.changes += len(solution.evicted_jobs)

    for a, app in enumerate(apps):
        total = 0.0
        for n in range(num_nodes):
            node_id = nodes[n].node_id
            if y[a, n] > _ROUND:
                grant = float(max(w[a, n], 0.0))
                grant = min(grant, cpu_left[node_id])
                grant = 0.0 if grant < _MHZ_EPS else grant
                cpu_left[node_id] -= grant
                solution.placement.add(
                    PlacementEntry(
                        vm_id=app.instance_vm_id(node_id),
                        node_id=node_id,
                        cpu_mhz=grant,
                        memory_mb=app.instance_memory_mb,
                        kind=WorkloadKind.TRANSACTIONAL,
                    )
                )
                total += grant
                if node_id not in app.current_nodes:
                    solution.started_instances.append((app.app_id, node_id))
                    solution.changes += 1
            elif node_id in app.current_nodes:
                solution.stopped_instances.append((app.app_id, node_id))
                solution.changes += 1
        solution.app_allocations[app.app_id] = total


class _Model:
    """The assembled MIP: variable layout, constraints and metadata."""

    __slots__ = (
        "nodes",
        "apps",
        "jobs",
        "running",
        "rate_caps",
        "num_x",
        "num_y",
        "y_off",
        "w_off",
        "objective",
        "constraints",
        "integrality",
        "lower",
        "upper",
    )


def _build_model(
    nodes: list[NodeSpec],
    apps: list[AppRequest],
    running: list[JobRequest],
    runnable: list[JobRequest],
    lr_target: Optional[Mhz],
    config: SolverConfig,
) -> _Model:
    """Assemble objective, bounds and sparse constraints.

    Variable layout: ``x`` (J*N binaries), ``r`` (J*N continuous), ``y``
    (A*N binaries), ``w`` (A*N continuous), each block job-/app-major.
    """
    jobs = running + runnable
    num_jobs, num_apps, num_nodes = len(jobs), len(apps), len(nodes)
    cpu = np.asarray([n.cpu_capacity for n in nodes], dtype=float)
    mem = np.asarray([n.memory_mb for n in nodes], dtype=float)
    per_job_targets = np.asarray(
        [min(r.target_rate, r.speed_cap) for r in jobs], dtype=float
    )
    if lr_target is None:
        # No boost: each job is capped at its own (cap-clipped) target.
        rate_caps = per_job_targets
        lr_envelope = None
    else:
        # Work-conserving boost envelope (see module docstring).
        rate_caps = np.asarray([r.speed_cap for r in jobs], dtype=float)
        lr_envelope = max(float(lr_target), float(per_job_targets.sum()))

    model = _Model()
    model.nodes = nodes
    model.apps = apps
    model.jobs = jobs
    model.running = running
    model.rate_caps = rate_caps
    model.num_x = num_jobs * num_nodes
    model.num_y = num_apps * num_nodes
    model.y_off = 2 * model.num_x
    model.w_off = model.y_off + model.num_y
    num_vars = model.w_off + model.num_y

    def x_idx(j: int, n: int) -> int:
        return j * num_nodes + n

    def r_idx(j: int, n: int) -> int:
        return model.num_x + j * num_nodes + n

    def y_idx(a: int, n: int) -> int:
        return model.y_off + a * num_nodes + n

    def w_idx(a: int, n: int) -> int:
        return model.w_off + a * num_nodes + n

    lower = np.zeros(num_vars)
    upper = np.empty(num_vars)
    upper[: model.num_x] = 1.0
    for j in range(num_jobs):
        for n in range(num_nodes):
            upper[r_idx(j, n)] = min(rate_caps[j], cpu[n])
    upper[model.y_off : model.w_off] = 1.0
    for a in range(num_apps):
        for n in range(num_nodes):
            upper[w_idx(a, n)] = cpu[n]
    integrality = np.zeros(num_vars)
    integrality[: model.num_x] = 1
    integrality[model.y_off : model.w_off] = 1

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    lo: list[float] = []
    hi: list[float] = []
    row = 0

    def add(entries: list[tuple[int, float]], lb: float, ub: float) -> None:
        nonlocal row
        for col, val in entries:
            rows.append(row)
            cols.append(col)
            vals.append(val)
        lo.append(lb)
        hi.append(ub)
        row += 1

    node_index = {n.node_id: i for i, n in enumerate(nodes)}

    # Single placement per job.  Running jobs inside the completion
    # window must remain placed somewhere (suspending them forfeits more
    # progress than letting them run out; see EvictionPolicy) -- they
    # may still migrate, exactly like the greedy.
    for j in range(num_jobs):
        protected = (
            j < len(running)
            and jobs[j].min_remaining_time <= config.protect_completion
        )
        add(
            [(x_idx(j, n), 1.0) for n in range(num_nodes)],
            1.0 if protected else 0.0,
            1.0,
        )
    # Churn caps shared with the greedy: evictions (running jobs losing
    # their placement) and migrations (running jobs changing node).
    if running:
        add(
            [
                (x_idx(j, n), -1.0)
                for j in range(len(running))
                for n in range(num_nodes)
            ],
            -np.inf,
            float(config.max_evictions) - len(running),
        )
        migration_cols = []
        for j in range(len(running)):
            home = node_index[jobs[j].current_node]
            for n in range(num_nodes):
                if n != home:
                    migration_cols.append((x_idx(j, n), 1.0))
        if migration_cols:
            add(migration_cols, -np.inf, float(config.max_migrations))
    # Big-M link: r[j,n] <= min(u_j, C_n) * x[j,n].  Zero-demand jobs
    # (target_rate=0 without a boost envelope) have rate_cap 0, so their
    # r columns are already fixed to 0 by the variable bounds; emitting
    # the degenerate all-but-zero link rows on top of that trips a HiGHS
    # presolve failure (Status 4) on some instances, so skip them.
    for j in range(num_jobs):
        if rate_caps[j] <= 0.0:
            continue
        for n in range(num_nodes):
            big_m = min(rate_caps[j], cpu[n])
            add([(r_idx(j, n), 1.0), (x_idx(j, n), -big_m)], -np.inf, 0.0)
    # Admission floor for waiting jobs: placed => granted at least
    # min_job_rate (a job on a single node, so the sum forms collapse).
    if config.min_job_rate > 0:
        for j in range(len(running), num_jobs):
            add(
                [(r_idx(j, n), 1.0) for n in range(num_nodes)]
                + [(x_idx(j, n), -float(config.min_job_rate))
                   for n in range(num_nodes)],
                0.0,
                np.inf,
            )
    # Node CPU.
    for n in range(num_nodes):
        entries = [(r_idx(j, n), 1.0) for j in range(num_jobs)]
        entries += [(w_idx(a, n), 1.0) for a in range(num_apps)]
        add(entries, 0.0, float(cpu[n]))
    # Node memory.
    for n in range(num_nodes):
        entries = [(x_idx(j, n), float(jobs[j].memory_mb)) for j in range(num_jobs)]
        entries += [
            (y_idx(a, n), float(apps[a].instance_memory_mb))
            for a in range(num_apps)
        ]
        add(entries, 0.0, float(mem[n]))
    # Instance-count bounds and big-M web links, per app.
    for a, app in enumerate(apps):
        current = sorted(app.current_nodes & {n.node_id for n in nodes})
        # Never forced to start instances it does not have, never allowed
        # to stop below min_instances it does have.
        count_lo = float(min(app.min_instances, len(current)))
        count_hi = float(max(app.max_instances, len(current)))
        add([(y_idx(a, n), 1.0) for n in range(num_nodes)], count_lo, count_hi)
        if not config.stop_idle_instances:
            # Stopping is disabled: every running instance stays up.
            for node_id in current:
                lower[y_idx(a, node_index[node_id])] = 1.0
        for n in range(num_nodes):
            add(
                [(w_idx(a, n), 1.0), (y_idx(a, n), -float(cpu[n]))],
                -np.inf,
                0.0,
            )
        add(
            [(w_idx(a, n), 1.0) for n in range(num_nodes)],
            0.0,
            float(app.target_allocation),
        )
    # Aggregate long-running envelope.
    if lr_envelope is not None and num_jobs:
        add(
            [(r_idx(j, n), 1.0) for j in range(num_jobs) for n in range(num_nodes)],
            0.0,
            lr_envelope,
        )

    # Change accounting: admitted waiting jobs cost 1, running jobs cost
    # 1 unless retained in place (suspend or migrate), instance starts
    # and stops cost 1 each.  The constant part (one potential change per
    # running job and per current instance) moves to the bounds.
    change_cols: list[tuple[int, float]] = []
    constant = 0.0
    for j, request in enumerate(jobs):
        if j < len(running):
            change_cols.append((x_idx(j, node_index[request.current_node]), -1.0))
            constant += 1.0
        else:
            for n in range(num_nodes):
                change_cols.append((x_idx(j, n), 1.0))
    for a, app in enumerate(apps):
        for node_id in app.current_nodes:
            n = node_index.get(node_id)
            if n is None:
                continue
            change_cols.append((y_idx(a, n), -1.0))
            constant += 1.0
        for n, node in enumerate(nodes):
            if node.node_id not in app.current_nodes:
                change_cols.append((y_idx(a, n), 1.0))
    if config.change_budget is not None and change_cols:
        add(change_cols, -np.inf, float(config.change_budget) - constant)

    # Objective: maximize satisfied demand minus the change penalty
    # (scipy minimizes, so negate).
    objective = np.zeros(num_vars)
    objective[model.num_x : 2 * model.num_x] = -1.0
    objective[model.w_off :] = -1.0
    if config.change_penalty_mhz > 0:
        for col, coeff in change_cols:
            objective[col] += config.change_penalty_mhz * coeff

    model.objective = objective
    model.constraints = optimize.LinearConstraint(
        sparse.csr_matrix((vals, (rows, cols)), shape=(row, num_vars)),
        np.asarray(lo),
        np.asarray(hi),
    )
    model.integrality = integrality
    model.lower = lower
    model.upper = upper
    return model


def _solve_model(model: _Model) -> tuple[np.ndarray, int]:
    """Run HiGHS branch-and-bound; return the solution and the retry count.

    HiGHS presolve occasionally reports "Status 4: Solve error" on
    degenerate instances the solver proper handles fine, so a failed
    first attempt is retried once with presolve disabled before the
    error surfaces as a :class:`ModelError`.  The retry only runs where
    the single attempt used to raise, so successful solves stay
    bit-identical; the count (0 or 1) reaches the recorder's
    ``milp_retries`` counter.
    """
    result = None
    for retries, options in enumerate((
        {"mip_rel_gap": 1e-6},
        {"mip_rel_gap": 1e-6, "presolve": False},
    )):
        result = optimize.milp(
            c=model.objective,
            constraints=model.constraints,
            integrality=model.integrality,
            bounds=optimize.Bounds(model.lower, model.upper),
            options=options,
        )
        if result.status == 0 and result.x is not None:
            return np.asarray(result.x, dtype=float), retries
    raise ModelError(
        f"placement MILP failed on {len(model.nodes)} nodes x "
        f"{len(model.jobs)} jobs ({len(model.apps)} apps): "
        f"status={result.status} ({result.message})"
    )
