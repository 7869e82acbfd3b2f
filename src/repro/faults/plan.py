"""Compiling fault plans into scheduled events.

:func:`compile_faults` expands a :class:`~repro.faults.models.FaultPlanSpec`
into concrete :class:`~repro.experiments.scenario.NodeFailure` /
:class:`~repro.experiments.scenario.NodeBrownout` events.  The expansion
is a deterministic function of the generator it is handed (seeded from
the scenario seed by ``ScenarioSpec.materialize``), because the draw
order is fixed: crash specs, then zone-outage specs, then flap specs,
then brownout specs, each iterating its eligible nodes (or zones) in
cluster registration order.  Admission filtering happens *after* all
draws for a node, so dropping an overlapping interval never shifts the
random stream of later nodes.

Outage intervals (crashes, zone outages, flaps) are de-overlapped per
node against each other *and* against the hand-written
``ScenarioSpec.failures`` schedule: a drawn interval that intersects an
already-admitted outage of the same node is silently dropped -- the node
is already down.  Brownout intervals are de-overlapped only among
themselves; a brownout that happens to intersect an outage is harmless
(a failed node has no capacity to derate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..experiments.scenario import NodeBrownout, NodeFailure
from .models import FaultPlanSpec

#: Safety cap on events drawn per (process, node): a pathological MTBF
#: far below the horizon cannot explode the schedule.
_MAX_EVENTS_PER_NODE = 512

#: Floor on drawn outage/brownout durations, so `restore_at > at` always
#: holds even for a zero exponential draw.
_MIN_DURATION = 1e-6

# Intervals are (start, end) with end = +inf for permanent outages.
_Interval = tuple[float, float]


@dataclass(frozen=True)
class CompiledFaults:
    """The scheduled events a fault plan expands to."""

    failures: tuple[NodeFailure, ...]
    brownouts: tuple[NodeBrownout, ...]


def validate_failure_schedule(
    failures: Sequence[NodeFailure], *, field: str = "failures"
) -> None:
    """Reject overlapping outages of the same node.

    A failure scheduled while the node is already down (or a permanent
    failure followed by any later failure of the same node) would only
    surface mid-simulation as confusing ``Cluster`` behaviour; catch it
    at spec-build time instead.

    Raises
    ------
    ConfigurationError
        Naming the two conflicting entries by index.
    """
    by_node: dict[str, list[tuple[float, float, int]]] = {}
    for index, failure in enumerate(failures):
        end = math.inf if failure.restore_at is None else failure.restore_at
        by_node.setdefault(failure.node_id, []).append((failure.at, end, index))
    for node_id, intervals in by_node.items():
        intervals.sort()
        for (start_a, end_a, a), (start_b, _end_b, b) in zip(
            intervals, intervals[1:]
        ):
            if start_b < end_a:
                raise ConfigurationError(
                    f"{field}[{b}] (node {node_id!r}, t={start_b:g}) overlaps "
                    f"{field}[{a}] (t={start_a:g}.."
                    f"{'inf' if end_a == math.inf else f'{end_a:g}'})"
                )


def _overlaps(intervals: Iterable[_Interval], start: float, end: float) -> bool:
    return any(start < e and s < end for s, e in intervals)


def _renewal_intervals(
    rng: np.random.Generator,
    *,
    mtbf: float,
    mean_duration: float,
    start: float,
    horizon: float,
) -> list[_Interval]:
    """Alternating up/down renewal process truncated at the horizon."""
    intervals: list[_Interval] = []
    t = start + float(rng.exponential(mtbf))
    while t < horizon and len(intervals) < _MAX_EVENTS_PER_NODE:
        duration = max(float(rng.exponential(mean_duration)), _MIN_DURATION)
        intervals.append((t, t + duration))
        t += duration + float(rng.exponential(mtbf))
    return intervals


def _eligible_nodes(
    node_ids: Sequence[str],
    node_class_of: Mapping[str, str],
    node_class: str | None,
    what: str,
) -> list[str]:
    if node_class is None:
        return list(node_ids)
    eligible = [nid for nid in node_ids if node_class_of.get(nid) == node_class]
    if not eligible:
        raise ConfigurationError(
            f"{what}: node_class {node_class!r} matches no node in the topology"
        )
    return eligible


def _zone_partition(node_ids: Sequence[str], zones: int) -> list[list[str]]:
    """Split nodes into ``zones`` contiguous groups in registration order."""
    if zones > len(node_ids):
        raise ConfigurationError(
            f"zones={zones} exceeds the {len(node_ids)}-node topology"
        )
    base, extra = divmod(len(node_ids), zones)
    partition: list[list[str]] = []
    cursor = 0
    for z in range(zones):
        size = base + (1 if z < extra else 0)
        partition.append(list(node_ids[cursor : cursor + size]))
        cursor += size
    return partition


def _named_zone_partition(
    node_ids: Sequence[str],
    zone_names: Sequence[str],
    node_zone_of: Mapping[str, str],
) -> list[list[str]]:
    """One group per named topology zone, nodes in registration order.

    Every name must match at least one node's zone: a typo'd zone name
    used to compile to a silent no-op outage, now it fails loudly with
    the zones that do exist.
    """
    partition: list[list[str]] = []
    for name in zone_names:
        members = [nid for nid in node_ids if node_zone_of.get(nid) == name]
        if not members:
            known = sorted(set(node_zone_of.values()))
            raise ConfigurationError(
                f"zone {name!r} matches no node in the topology "
                f"(zones present: {', '.join(known) if known else 'none'})"
            )
        partition.append(members)
    return partition


def compile_faults(
    plan: FaultPlanSpec,
    *,
    node_ids: Sequence[str],
    node_class_of: Mapping[str, str],
    rng: np.random.Generator,
    horizon: float,
    existing_failures: Sequence[NodeFailure] = (),
    node_zone_of: Mapping[str, str] | None = None,
) -> CompiledFaults:
    """Expand ``plan`` into scheduled failure and brownout events.

    Parameters
    ----------
    node_ids:
        Every node of the topology, in registration order (the ids the
        materialized cluster will use).
    node_class_of:
        Node id -> :class:`~repro.cluster.topology.NodeClass` name; empty
        for homogeneous topologies.
    node_zone_of:
        Node id -> network-zone name (see
        :meth:`repro.api.spec.TopologySpec.zone_map`); consulted
        only by zone-outage specs that select zones *by name*.  ``None``
        or empty means the topology declares no zones, so named
        selections fail validation.
    rng:
        Seeded generator owning the fault realization; the caller passes
        ``RngRegistry(seed).stream(plan.stream)``.
    horizon:
        No fault *begins* at or after this time (repairs may complete
        later; the runner simply never executes them).
    existing_failures:
        Hand-written outages the compiled schedule must not overlap.

    Returns
    -------
    CompiledFaults
        Events sorted by ``(at, node_id)``.
    """
    outages: dict[str, list[_Interval]] = {}
    for failure in existing_failures:
        end = math.inf if failure.restore_at is None else failure.restore_at
        outages.setdefault(failure.node_id, []).append((failure.at, end))

    failures: list[NodeFailure] = []

    def admit_outage(node_id: str, start: float, end: float) -> None:
        taken = outages.setdefault(node_id, [])
        if _overlaps(taken, start, end):
            return
        taken.append((start, end))
        failures.append(NodeFailure(at=start, node_id=node_id, restore_at=end))

    for i, crash in enumerate(plan.crashes):
        eligible = _eligible_nodes(
            node_ids, node_class_of, crash.node_class, f"faults.crashes[{i}]"
        )
        for node_id in eligible:
            intervals = _renewal_intervals(
                rng,
                mtbf=crash.mtbf,
                mean_duration=crash.mttr,
                start=crash.start,
                horizon=horizon,
            )
            for start, end in intervals:
                admit_outage(node_id, start, end)

    for i, zone_spec in enumerate(plan.zone_outages):
        try:
            if isinstance(zone_spec.zones, int):
                partition = _zone_partition(node_ids, zone_spec.zones)
            else:
                partition = _named_zone_partition(
                    node_ids, zone_spec.zones, node_zone_of or {}
                )
        except ConfigurationError as exc:
            raise ConfigurationError(f"faults.zone_outages[{i}]: {exc}") from None
        for zone in partition:
            intervals = _renewal_intervals(
                rng,
                mtbf=zone_spec.mtbf,
                mean_duration=zone_spec.mttr,
                start=zone_spec.start,
                horizon=horizon,
            )
            for start, end in intervals:
                for node_id in zone:
                    admit_outage(node_id, start, end)

    for i, flap in enumerate(plan.flaps):
        eligible = _eligible_nodes(
            node_ids, node_class_of, flap.node_class, f"faults.flaps[{i}]"
        )
        for node_id in eligible:
            t = flap.start + float(rng.exponential(flap.mtbf))
            episodes = 0
            while t < horizon and episodes < _MAX_EVENTS_PER_NODE:
                for _ in range(flap.flaps):
                    if t >= horizon:
                        break
                    admit_outage(node_id, t, t + flap.down)
                    t += flap.down + flap.up
                episodes += 1
                t += float(rng.exponential(flap.mtbf))

    brownout_taken: dict[str, list[_Interval]] = {}
    brownouts: list[NodeBrownout] = []
    for i, brownout in enumerate(plan.brownouts):
        eligible = _eligible_nodes(
            node_ids, node_class_of, brownout.node_class, f"faults.brownouts[{i}]"
        )
        for node_id in eligible:
            intervals = _renewal_intervals(
                rng,
                mtbf=brownout.mtbf,
                mean_duration=brownout.duration,
                start=brownout.start,
                horizon=horizon,
            )
            taken = brownout_taken.setdefault(node_id, [])
            for start, end in intervals:
                if _overlaps(taken, start, end):
                    continue
                taken.append((start, end))
                brownouts.append(
                    NodeBrownout(
                        at=start,
                        node_id=node_id,
                        fraction=brownout.fraction,
                        restore_at=end,
                    )
                )

    failures.sort(key=lambda f: (f.at, f.node_id))
    brownouts.sort(key=lambda b: (b.at, b.node_id))
    return CompiledFaults(failures=tuple(failures), brownouts=tuple(brownouts))
