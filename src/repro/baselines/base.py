"""Shared scaffolding for baseline placement policies.

Baselines reuse the controller's observation pipeline (demand estimation,
transactional model building, request construction) but replace the
utility-driven decision core with simpler disciplines.  Each baseline
produces the same :class:`~repro.core.controller.ControlDecision` shape,
so the experiment runner treats them identically -- an apples-to-apples
comparison of decision *policies* under one enactment substrate.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..cluster.node import NodeSpec
from ..cluster.placement import Placement
from ..core.actions_planner import plan_actions, vm_states_of
from ..core.controller import (
    ControlDecision,
    ControlDiagnostics,
    UtilityDrivenController,
)
from ..core.hypothetical import (
    equalize_hypothetical_utility,
    longrunning_max_utility_demand,
)
from ..core.job_scheduler import JobRequest
from ..core.placement_solver import PlacementSolution, PlacementSolver
from ..perf.jobmodel import snapshot_jobs
from ..types import Mhz, Seconds
from ..workloads.jobs import Job, JobPhase


class BaselinePolicy(UtilityDrivenController):
    """Base class: inherits observation handling, overrides the decision.

    Subclasses implement :meth:`_solve_cycle`, producing a
    :class:`~repro.core.placement_solver.PlacementSolution` from the
    current state; this class wraps it into a full decision with actions
    and diagnostics.

    Baselines always run on the *greedy* placement solver regardless of
    ``SolverConfig.backend``: their disciplines are defined in terms of
    the greedy's ordered phases (FCFS/EDF ride its submit-time
    tie-break, static partitioning its per-partition water-fill).  An
    optimizing backend would silently change what the baseline's label
    means, corrupting comparisons.
    """

    #: Subclass-provided policy name (reports and comparison tables).
    policy_name = "baseline"

    def _build_solver(self) -> PlacementSolver:
        return PlacementSolver(self.config.solver)

    def decide(
        self,
        t: Seconds,
        *,
        nodes: Sequence[NodeSpec],
        jobs: Sequence[Job],
        current_placement: Placement,
        app_nodes: Mapping[str, frozenset[str]],
    ) -> ControlDecision:
        population = snapshot_jobs(jobs, t)
        tx_curves = self._tx_curves()
        tx_demand = sum(c.max_utility_demand for c in tx_curves)
        capacity = sum(n.cpu_capacity for n in nodes)

        solution = self._solve_cycle(
            t,
            nodes=nodes,
            jobs=jobs,
            tx_demand=tx_demand,
            capacity=capacity,
            app_nodes=app_nodes,
        )
        actions = plan_actions(
            current_placement, solution.placement, vm_states_of(jobs, app_nodes)
        )

        satisfied_lr = solution.satisfied_lr_demand
        hypothetical = equalize_hypothetical_utility(population, satisfied_lr)
        tx_alloc = solution.satisfied_tx_demand
        tx_utility = min(
            (c.utility(a) for c, a in zip(tx_curves, self._member_allocs(solution))),
            default=1.0,
        )
        diagnostics = ControlDiagnostics(
            time=t,
            capacity=capacity,
            tx_demand=tx_demand,
            lr_demand=longrunning_max_utility_demand(population),
            tx_target=tx_alloc,
            lr_target=satisfied_lr,
            tx_utility_predicted=tx_utility,
            lr_utility_mean=hypothetical.mean_utility,
            lr_utility_level=hypothetical.utility_level,
            equalized=False,
            arbiter_iterations=0,
            population_size=len(population),
            app_targets=dict(solution.app_allocations),
        )
        return ControlDecision(
            actions=actions,
            solution=solution,
            hypothetical=hypothetical,
            diagnostics=diagnostics,
        )

    def _member_allocs(self, solution: PlacementSolution) -> list[Mhz]:
        return [solution.app_allocations.get(a, 0.0) for a in sorted(self._specs)]

    # ------------------------------------------------------------------
    # Subclass API
    # ------------------------------------------------------------------
    def _solve_cycle(
        self,
        t: Seconds,
        *,
        nodes: Sequence[NodeSpec],
        jobs: Sequence[Job],
        tx_demand: Mhz,
        capacity: Mhz,
        app_nodes: Mapping[str, frozenset[str]],
    ) -> PlacementSolution:
        """Produce the cycle's placement under the baseline's discipline."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers shared by the baselines
    # ------------------------------------------------------------------
    @staticmethod
    def _fifo_job_requests(
        jobs: Sequence[Job],
        t: Seconds,
        targets: Optional[Mapping[str, Mhz]] = None,
        order_time: Optional[Mapping[str, Seconds]] = None,
    ) -> list[JobRequest]:
        """Job requests with explicit targets and ordering keys.

        With equal targets the solver's urgency order degenerates to its
        tie-break -- ascending ``submit_time`` -- so passing the true
        submission time yields FCFS and passing the absolute deadline
        yields (non-preemptive) EDF.
        """
        requests = []
        for job in jobs:
            if not job.is_incomplete or job.spec.submit_time > t:
                continue
            target = (
                targets.get(job.job_id, 0.0)
                if targets is not None
                else job.spec.speed_cap_mhz
            )
            requests.append(
                JobRequest(
                    job_id=job.job_id,
                    vm_id=job.vm_id,
                    target_rate=target,
                    speed_cap=job.spec.speed_cap_mhz,
                    memory_mb=job.spec.memory_mb,
                    current_node=job.node_id,
                    was_suspended=job.phase is JobPhase.SUSPENDED,
                    submit_time=(
                        order_time.get(job.job_id, job.spec.submit_time)
                        if order_time is not None
                        else job.spec.submit_time
                    ),
                    importance=job.spec.importance,
                    remaining_work=max(
                        job.remaining_work - job.rate * (t - job.last_update), 0.0
                    ),
                )
            )
        return requests
