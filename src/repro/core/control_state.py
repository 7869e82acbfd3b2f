"""Cross-cycle state of the incremental control plane.

The controller's inputs barely change between consecutive control cycles
-- the same nodes, the same applications, a job population that advanced
by one cycle's progress -- yet the stateless pipeline re-derived every
equalization from scratch.  :class:`ControlState` makes the temporal
locality explicit: it persists across :meth:`decide()
<repro.core.controller.UtilityDrivenController.decide>` calls, carries
the previous cycle's converged results as *hints* for the next one, and
reports each cycle's :class:`CycleTelemetry` (stage wall-times,
equalizer cache statistics) for the recorder, which keeps the run's
counters.

Correctness contract
--------------------
Warm starts in this control plane accelerate *evaluations*, never the
search trajectory: the previous cycle's converged level only starts the
equalizer's level predictor for the cycle's first solve, and every
prediction is verified against the bisection invariant before use (see
:meth:`repro.core.hypothetical.HypotheticalEqualizer.seed_level`), so a
warm cycle produces **bit-identical** decisions to a cold one.  A cold
cycle's first solve starts its predictor from the least job ceiling
instead; every later solve of a cycle starts from the previous solve's
tangent either way, so the warm level saves a few Newton passes per
cycle at most.  The fingerprint-based invalidation below is therefore a
*predictability* mechanism, not a safety net: when the cycle's context
changed in a way that makes the previous converged state meaningless --
topology change, node failure, app add/remove, a demand shift beyond
the fingerprint tolerance -- the controller does not even offer the
stale hint, and the cycle runs (and is reported as) cold.

Lifecycle
---------
The state is owned by whoever owns the controller across cycles: the
experiment runner builds one per policy (driven by
``ControllerConfig.warm_start``), benchmarks build warm and cold ones
explicitly, and a bare controller constructs its own.  ``begin_cycle``
decides warm-versus-cold from the fingerprint, ``complete_cycle`` stores
the converged hints, and ``invalidate`` forces the next cycle cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..cluster.node import NodeSpec
from ..errors import ConfigurationError
from ..types import Mhz


@dataclass(frozen=True, slots=True)
class CycleFingerprint:
    """Compact summary of one control cycle's inputs.

    Two consecutive cycles with "compatible" fingerprints (see
    :meth:`ControlState.begin_cycle`) may share warm-start hints.

    Attributes
    ----------
    topology:
        ``(node_id, cpu_capacity, memory_mb)`` per active node, sorted by
        id.  Any node failure, restore, resize, or membership change
        produces a different tuple.
    app_ids:
        Managed transactional applications, sorted.
    capacity:
        Effective cluster capacity handed to the arbiter (MHz).
    tx_demand / lr_demand:
        Max-utility demands of the two workloads (MHz).
    population:
        Incomplete-job count.
    """

    topology: tuple[tuple[str, float, float], ...]
    app_ids: tuple[str, ...]
    capacity: Mhz
    tx_demand: Mhz
    lr_demand: Mhz
    population: int

    @classmethod
    def of(
        cls,
        nodes: Sequence[NodeSpec],
        app_ids: Sequence[str],
        capacity: Mhz,
        tx_demand: Mhz,
        lr_demand: Mhz,
        population: int,
    ) -> "CycleFingerprint":
        """Build a fingerprint from the cycle's raw inputs."""
        return cls(
            topology=tuple(
                sorted((n.node_id, n.cpu_capacity, n.memory_mb) for n in nodes)
            ),
            app_ids=tuple(sorted(app_ids)),
            capacity=capacity,
            tx_demand=tx_demand,
            lr_demand=lr_demand,
            population=population,
        )


@dataclass(frozen=True, slots=True)
class CycleTelemetry:
    """Per-cycle control-plane telemetry, attached to the diagnostics.

    Attributes
    ----------
    mode:
        ``"warm"`` when cross-cycle hints were offered to this cycle,
        ``"cold"`` otherwise.
    reason:
        Why the cycle ran cold (``""`` for warm cycles): one of
        ``"disabled"``, ``"first-cycle"``, ``"invalidated:<cause>"``,
        ``"topology-changed"``, ``"app-churn"``, ``"demand-shift"``.
    stage_ms:
        Wall-clock milliseconds per decide() stage (``demand``,
        ``arbiter``, ``equalize``, ``requests``, ``solver``, ``planner``,
        plus their sum under ``total``).
    eq_evals / eq_cache_hits:
        Vectorized passes over the population (exact consumed-curve
        evaluations and the level predictor's Newton steps) / curve
        evaluations served by the shared memo, across every
        equalization of the cycle.
    seed_hits / seed_misses:
        Equalizations whose predicted level verified (the bisection
        resumed at the prediction's node, or a retried neighbouring or
        shallower one) versus those that fell back to the cold bracket.
    """

    mode: str
    reason: str
    stage_ms: Mapping[str, float] = field(default_factory=dict)
    eq_evals: int = 0
    eq_cache_hits: int = 0
    seed_hits: int = 0
    seed_misses: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of consumed-curve lookups served by the memo."""
        lookups = self.eq_evals + self.eq_cache_hits
        return self.eq_cache_hits / lookups if lookups else 0.0


class ControlState:
    """Persistent cross-cycle state of one controller.

    Parameters
    ----------
    warm:
        Master switch.  ``False`` reproduces the fully stateless
        pipeline: every cycle reports cold and no hints are kept.
    demand_rtol:
        Relative shift in either workload's max-utility demand (or in
        the population size) beyond which the previous cycle's converged
        state is considered meaningless and the cycle runs cold.
    """

    __slots__ = (
        "warm",
        "demand_rtol",
        "_fingerprint",
        "_lr_level",
        "_pending_reason",
    )

    def __init__(
        self,
        warm: bool = True,
        demand_rtol: float = 0.35,
    ) -> None:
        if demand_rtol < 0:
            raise ConfigurationError("demand_rtol must be non-negative")
        self.warm = warm
        self.demand_rtol = demand_rtol
        self._fingerprint: Optional[CycleFingerprint] = None
        self._lr_level: Optional[float] = None
        self._pending_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Hints
    # ------------------------------------------------------------------
    @property
    def lr_level(self) -> Optional[float]:
        """Previous cycle's converged hypothetical-utility level."""
        return self._lr_level

    @property
    def fingerprint(self) -> Optional[CycleFingerprint]:
        """Fingerprint of the last completed cycle."""
        return self._fingerprint

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin_cycle(self, fingerprint: CycleFingerprint) -> tuple[bool, str]:
        """Decide warm-versus-cold for the cycle described by ``fingerprint``.

        Returns ``(warm, reason)``; ``reason`` is ``""`` when warm and
        names the invalidation cause otherwise (see
        :class:`CycleTelemetry`).
        """
        reason = self._cold_reason(fingerprint)
        return reason is None, reason or ""

    def _cold_reason(self, fp: CycleFingerprint) -> Optional[str]:
        if not self.warm:
            return "disabled"
        if self._pending_reason is not None:
            reason = f"invalidated:{self._pending_reason}"
            self._pending_reason = None
            return reason
        prev = self._fingerprint
        if prev is None or self._lr_level is None:
            return "first-cycle"
        if fp.topology != prev.topology:
            return "topology-changed"
        if fp.app_ids != prev.app_ids:
            return "app-churn"
        if (
            self._shifted(fp.tx_demand, prev.tx_demand)
            or self._shifted(fp.lr_demand, prev.lr_demand)
            or self._shifted(float(fp.population), float(prev.population))
        ):
            return "demand-shift"
        return None

    def _shifted(self, new: float, old: float) -> bool:
        scale = max(abs(new), abs(old))
        return scale > 0 and abs(new - old) > self.demand_rtol * scale

    def complete_cycle(self, fingerprint: CycleFingerprint, lr_level: float) -> None:
        """Store the cycle's converged results as the next cycle's hints."""
        self._fingerprint = fingerprint
        self._lr_level = lr_level

    def invalidate(self, reason: str = "external") -> None:
        """Drop every hint; the next cycle runs cold (``invalidated:<reason>``)."""
        self._fingerprint = None
        self._lr_level = None
        self._pending_reason = reason
