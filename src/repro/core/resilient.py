"""Graceful degradation around any placement policy.

:class:`ResilientController` wraps a :class:`~repro.experiments.runner.PlacementPolicy`
and guarantees the control loop three things:

* **No crash:** an exception escaping the wrapped ``decide()`` degrades
  the cycle instead of aborting the run.
* **No infeasible apply:** every decision is checked against the
  cycle's live node set with
  :meth:`repro.cluster.placement.Placement.violation` -- the predicate
  behind ``Placement.validate`` -- *before* the runner enacts it; an
  infeasible decision degrades the cycle.  The guard hands ``violation``
  the ``nodes`` it was given: the runner's
  :class:`~repro.cluster.node.NodeTable`, whose columns the check reads
  directly (any other sequence is converted once).
* **Bounded decide time accounting:** an optional ``decide_budget_ms``
  deadline is measured per cycle; overruns are counted, and with
  ``decide_budget_strict`` they degrade the cycle too.

``observe_app`` passes straight to the wrapped policy; only ``decide()``
is guarded.

A *degraded cycle* keeps the last-known-good placement: entries on nodes
that disappeared are dropped, per-node CPU is scaled down if a brownout
shrank capacity, and no other action is taken.  The wrapped policy is
not told: its next cycle recomputes the placement from the state it is
handed, as every cycle does.  On the success path the wrapped policy's
decision is returned untouched, so a fault-free run is bit-identical to
an unwrapped one.

``ControllerConfig.max_consecutive_degraded`` bounds how long the system
may stay degraded before the run is aborted with
:class:`~repro.errors.DegradedModeError`.
"""

from __future__ import annotations

import dataclasses
import math
from time import perf_counter
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from ..cluster.node import NodeSpec, NodeTable
from ..cluster.placement import Placement, parse_instance_vm_id
from ..config import ControllerConfig
from ..errors import DegradedModeError, ModelError
from ..types import Seconds
from ..workloads.jobs import Job
from .actions_planner import plan_actions
from .controller import ControlDecision, ControlDiagnostics
from .hypothetical import HypotheticalAllocation
from .placement_solver import PlacementSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import PlacementPolicy


class ResilientController:
    """Pre-apply feasibility guard + last-known-good fallback wrapper."""

    def __init__(
        self, inner: PlacementPolicy, config: Optional[ControllerConfig] = None
    ) -> None:
        self.inner = inner
        self.config = config or ControllerConfig()
        self._consecutive_degraded = 0

    # ------------------------------------------------------------------
    # PlacementPolicy interface
    # ------------------------------------------------------------------
    def observe_app(
        self, app_id: str, *, load: float, service_cycles: Optional[float] = None
    ) -> None:
        self.inner.observe_app(app_id, load=load, service_cycles=service_cycles)

    def decide(
        self,
        t: Seconds,
        *,
        nodes: Sequence[NodeSpec],
        jobs: Sequence[Job],
        current_placement: Placement,
        app_nodes: Mapping[str, frozenset[str]],
    ) -> ControlDecision:
        budget = self.config.decide_budget_ms
        started = perf_counter()
        try:
            decision = self.inner.decide(
                t,
                nodes=nodes,
                jobs=jobs,
                current_placement=current_placement,
                app_nodes=app_nodes,
            )
        except DegradedModeError:
            raise
        except ModelError as exc:
            # An exact backend failed to solve the cycle's instance
            # (e.g. a HiGHS solver error).  Same last-known-
            # good fallback, but its own counter -- a solver-health
            # signal, distinct from arbitrary policy exceptions.
            return self._degrade(t, nodes, current_placement, "model-error", exc)
        except Exception as exc:  # noqa: BLE001 - the whole point
            return self._degrade(
                t, nodes, current_placement, f"exception:{type(exc).__name__}", exc
            )
        elapsed_ms = (perf_counter() - started) * 1e3
        overrun = budget is not None and elapsed_ms > budget
        if overrun and self.config.decide_budget_strict:
            return self._degrade(
                t,
                nodes,
                current_placement,
                "deadline",
                f"decide took {elapsed_ms:.3f} ms, budget {budget:g} ms",
            )
        violation = decision.placement.violation(nodes)
        if violation is not None:
            return self._degrade(t, nodes, current_placement, "infeasible", violation)
        self._consecutive_degraded = 0
        if overrun:
            diagnostics = dataclasses.replace(
                decision.diagnostics, deadline_overrun=True
            )
            decision = dataclasses.replace(decision, diagnostics=diagnostics)
        return decision

    # ------------------------------------------------------------------
    # Degraded cycle
    # ------------------------------------------------------------------
    def _degrade(
        self,
        t: Seconds,
        nodes: Sequence[NodeSpec],
        current_placement: Placement,
        reason: str,
        cause: str | Exception,
    ) -> ControlDecision:
        """Fall back to the last-known-good placement.

        ``reason`` names the ``fallback:<reason>`` counter; ``cause`` is
        the violation text or the exception behind it.
        """
        nodes = NodeTable.of(nodes)
        detail = (
            f"{type(cause).__name__}: {cause}"
            if isinstance(cause, Exception)
            else cause
        )
        self._consecutive_degraded += 1
        limit = self.config.max_consecutive_degraded
        if limit is not None and self._consecutive_degraded > limit:
            raise DegradedModeError(
                f"{self._consecutive_degraded} consecutive degraded cycles "
                f"(limit {limit}); last fallback: {reason} ({detail})"
            )
        placement = self._last_known_good(current_placement, nodes)
        # The fallback only drops or shrinks incumbent entries, so no VM
        # enters and the planner needs no job to tell a start from a resume.
        actions = plan_actions(current_placement, placement, ())
        job_rates: dict[str, float] = {}
        app_allocations: dict[str, float] = {}
        for entry in placement:
            instance = parse_instance_vm_id(entry.vm_id)
            if instance is not None:
                app_id = instance[0]
                app_allocations[app_id] = (
                    app_allocations.get(app_id, 0.0) + entry.cpu_mhz
                )
            else:
                job_rates[entry.vm_id] = entry.cpu_mhz
        solution = PlacementSolution(
            placement=placement,
            job_rates=job_rates,
            app_allocations=app_allocations,
        )
        hypothetical = HypotheticalAllocation(
            utility_level=math.nan,
            rates=np.zeros(0),
            utilities=np.zeros(0),
            mean_utility=math.nan,
            consumed=solution.satisfied_lr_demand,
        )
        diagnostics = ControlDiagnostics(
            time=t,
            capacity=float(nodes.total_cpu),
            tx_demand=math.nan,
            lr_demand=math.nan,
            tx_target=math.nan,
            lr_target=math.nan,
            tx_utility_predicted=math.nan,
            lr_utility_mean=math.nan,
            lr_utility_level=math.nan,
            equalized=False,
            arbiter_iterations=0,
            population_size=0,
            degraded=True,
            fallback_reason=reason,
            fallback_detail=detail,
            deadline_overrun=reason == "deadline",
        )
        return ControlDecision(
            actions=actions,
            solution=solution,
            hypothetical=hypothetical,
            diagnostics=diagnostics,
        )

    def _last_known_good(
        self, current_placement: Placement, nodes: NodeTable
    ) -> Placement:
        """The incumbent placement restricted to live capacity."""
        specs = nodes.by_id
        placement = Placement()
        for entry in current_placement:
            if entry.node_id in specs:
                placement.add(entry)
        for node_id, spec in specs.items():
            cpu = placement.cpu_used(node_id)
            capacity = spec.cpu_capacity
            if cpu > capacity and cpu > 0:
                # A brownout shrank the node below the incumbent grant:
                # scale every entry proportionally to fit.
                scale = capacity / cpu
                for entry in list(placement.entries_on(node_id)):
                    placement.update_cpu(entry.vm_id, entry.cpu_mhz * scale)
        return placement
