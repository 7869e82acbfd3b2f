"""Serializable scenario specifications.

A :class:`ScenarioSpec` is the declarative counterpart of the
materialized :class:`~repro.experiments.scenario.Scenario`: pure data --
topology (homogeneous node counts or heterogeneous
:class:`~repro.cluster.topology.NodeClass` lists), transactional
applications with their intensity profiles, the job-trace generator,
controller/solver configuration, action costs, measurement noise,
failure injections, horizon and seed -- that round-trips losslessly
through ``to_dict``/``from_dict``, JSON and TOML, and materializes into
today's :class:`Scenario` with :meth:`ScenarioSpec.materialize`.

Specs are the unit the scenario registry (:mod:`repro.api.scenarios`),
the :class:`~repro.api.experiment.Experiment` facade and the
``python -m repro`` CLI trade in; validation failures raise
:class:`SpecValidationError` naming the offending field by its dotted
path (``scenario.apps[0].rt_goal``, ``scenario.topology.classes[1].count``
...).

Specs read and write through the one codec, :func:`repro.codec.encode`
/ :func:`repro.codec.decode`, which also serializes the runtime
dataclasses a spec holds directly -- the controller config, node
classes, intensity profiles, faults and the network -- driven by
dataclass fields and their type hints (rules: :mod:`repro.codec`).

Serialized layout (schema tag ``repro.scenario/v1``)::

    {
      "schema": "repro.scenario/v1",
      "name": "smoke", "seed": 7, "horizon": 6000.0,
      "topology": {"num_nodes": 4, "processors": 4, ...}      # homogeneous
                | {"classes": [{"name", "count", ...}, ...]}, # heterogeneous
      "apps": [{"app_id", "rt_goal", ..., "profile": {"kind": ...}}, ...],
      "jobs": {"kind": "paper" | "uniform" | "differentiated" | "none", ...},
      "controller": {..., "solver": {...}},
      "costs": {...}, "noise": {...},
      "failures": [{"at", "node_id", "restore_at"?}, ...],
      "faults": {                                   # stochastic fault models
        "crashes":      [{"mtbf", "mttr", "node_class"?, "start"?}, ...],
        "zone_outages": [{"zones", "mtbf", "mttr", "start"?}, ...],
        "brownouts":    [{"mtbf", "duration", "fraction",
                          "node_class"?, "start"?}, ...],
        "flaps":        [{"mtbf", "flaps", "down", "up",
                          "node_class"?, "start"?}, ...],
        "stream": "faults"
      },
      "network": {                                  # zoned latency model
        "zones": [{"name": "edge", "users": 70.0}, ...],
        "rtt_ms": [[0.0, 20.0], [20.0, 0.0]]
      }
    }

The ``jobs`` table is one of four per-kind trace specs, each with only
the fields its generator uses.  ``paper``, ``uniform`` and
``differentiated`` share ``count``, ``mean_interarrival`` and
``stream``; ``paper`` (:class:`PaperTraceSpec`) adds
``rate_drop_time``, ``rate_drop_ratio``, ``initial_jobs`` and an
optional ``template``; ``uniform`` (:class:`UniformTraceSpec`) adds
``start`` and a required ``template``; ``differentiated``
(:class:`DifferentiatedTraceSpec`) adds ``start`` and ``templates``, a
list of ``{weight, template}`` tables; ``none`` (:class:`NoJobsSpec`)
has no other keys.

``failures`` lists *scheduled* events at fixed instants; ``faults``
declares *stochastic* processes (MTBF/MTTR renewal models) that
:meth:`ScenarioSpec.materialize` compiles -- deterministically, from the
scenario seed's named RNG stream -- into concrete
:class:`~repro.experiments.scenario.NodeFailure` /
:class:`~repro.experiments.scenario.NodeBrownout` events via
:func:`repro.faults.compile_faults`.  Overlapping outages of the same
node (among explicit ``failures``, and between them and compiled events)
are rejected at spec-build / materialization time.

The optional ``network`` block declares the zoned latency model
(:mod:`repro.netmodel`): a symmetric inter-zone RTT matrix and per-zone
user populations.  It requires a class-based topology (each
:class:`~repro.cluster.topology.NodeClass` maps to a declared zone via
its ``zone`` field, defaulting to the class name) and is purely
schema-additive -- specs without it parse, materialize and simulate
exactly as before the network subsystem existed.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Mapping, Optional, Union

from ..cluster.actions import ActionCosts
from ..cluster.cluster import Cluster
from ..cluster.topology import (
    PAPER_MHZ_PER_PROCESSOR,
    PAPER_NODE_MEMORY_MB,
    PAPER_PROCESSORS,
    NodeClass,
    cluster_from_classes,
    homogeneous_cluster,
    homogeneous_node_ids,
)
from ..codec import SpecValidationError, _as_table, decode, encode
from ..config import ControllerConfig, NoiseConfig
from ..errors import ConfigurationError
from ..experiments.scenario import AppWorkload, NodeFailure, Scenario
from ..faults.models import FaultPlanSpec
from ..faults.plan import compile_faults, validate_failure_schedule
from ..netmodel import NetworkSpec
from ..sim.rng import RngRegistry
from ..workloads.jobs import JobSpec
from ..workloads.profiles import Profile
from ..workloads.tracegen import (
    PAPER_JOB_TEMPLATE,
    JobTemplate,
    differentiated_job_trace,
    paper_job_trace,
    uniform_job_trace,
)
from ..workloads.transactional import TransactionalAppSpec

#: Version tag of the serialized scenario layout (see module docstring).
SCENARIO_SCHEMA = "repro.scenario/v1"


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
#: Node shape of a homogeneous topology when a field is left unset.
_HOMOGENEOUS_DEFAULTS = {
    "processors": PAPER_PROCESSORS,
    "mhz_per_processor": PAPER_MHZ_PER_PROCESSOR,
    "memory_mb": PAPER_NODE_MEMORY_MB,
}


@dataclass(frozen=True)
class TopologySpec:
    """Cluster topology: homogeneous node count or heterogeneous classes.

    Exactly one form applies: either ``num_nodes`` identical nodes
    described by the ``processors``/``mhz_per_processor``/``memory_mb``
    fields (4 x 3000 MHz and 4000 MB when unset), or a non-empty
    ``classes`` list of :class:`~repro.cluster.topology.NodeClass`
    entries, which leaves the homogeneous fields unset.

    The topology builds the cluster (:meth:`build_cluster`), its node
    ids (:meth:`node_ids`, the fault-injection targets) and the node ->
    zone map (:meth:`zone_map`) from the same node-id functions, so they
    always agree.
    """

    num_nodes: Optional[int] = None
    processors: Optional[int] = None
    mhz_per_processor: Optional[float] = None
    memory_mb: Optional[float] = None
    classes: tuple[NodeClass, ...] = ()

    def __post_init__(self) -> None:
        if self.classes:
            for name in ("num_nodes", *_HOMOGENEOUS_DEFAULTS):
                if getattr(self, name) is not None:
                    raise SpecValidationError(
                        f"topology: {name} and classes are mutually exclusive"
                    )
        elif self.num_nodes is None:
            raise SpecValidationError(
                "topology: one of num_nodes or classes is required"
            )
        elif self.num_nodes < 1:
            raise SpecValidationError("topology.num_nodes: must be >= 1")
        else:
            for name, default in _HOMOGENEOUS_DEFAULTS.items():
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)

    @property
    def total_nodes(self) -> int:
        """Node count across both forms."""
        if self.classes:
            return sum(cls.count for cls in self.classes)
        return int(self.num_nodes)  # type: ignore[arg-type]

    def build_cluster(self) -> Cluster:
        """The cluster this topology describes."""
        if self.classes:
            return cluster_from_classes(self.classes)
        return homogeneous_cluster(
            self.total_nodes,
            processors=self.processors,  # type: ignore[arg-type]
            mhz_per_processor=self.mhz_per_processor,  # type: ignore[arg-type]
            memory_mb=self.memory_mb,  # type: ignore[arg-type]
        )

    def node_ids(self) -> list[str]:
        """Node identifiers in the cluster's registration order."""
        if self.classes:
            return [node_id for cls in self.classes for node_id in cls.node_ids()]
        return homogeneous_node_ids(self.total_nodes)

    def node_class_of(self) -> dict[str, str]:
        """``node_id -> class name`` map (empty for homogeneous topologies)."""
        return {
            node_id: cls.name for cls in self.classes for node_id in cls.node_ids()
        }

    def zone_map(self) -> dict[str, str]:
        """``node_id -> zone`` map (empty for homogeneous topologies).

        Each node lands in its class's declared ``zone``, or in a zone
        named after the class when it declares none.
        """
        return {
            node_id: cls.zone or cls.name
            for cls in self.classes
            for node_id in cls.node_ids()
        }


# ----------------------------------------------------------------------
# Transactional applications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AppSpec:
    """One managed transactional application plus its load profile."""

    app_id: str
    rt_goal: float
    mean_service_cycles: float
    request_cap_mhz: float
    instance_memory_mb: float
    profile: Profile
    min_instances: int = 1
    max_instances: int = 10_000
    model_kind: str = "closed"
    think_time: float = 0.0

    def __post_init__(self) -> None:
        # Eager validation: TransactionalAppSpec names the app and the
        # offending attribute in its ConfigurationError messages.
        self._tx_spec()

    def _tx_spec(self) -> TransactionalAppSpec:
        # Every TransactionalAppSpec field is an AppSpec field of the same name.
        return TransactionalAppSpec(
            **{
                f.name: getattr(self, f.name)
                for f in dataclasses.fields(TransactionalAppSpec)
            }
        )

    def materialize(self) -> AppWorkload:
        return AppWorkload(spec=self._tx_spec(), profile=self.profile)


# ----------------------------------------------------------------------
# Job traces
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class _TraceSpec:
    """Fields every job-trace generator shares.

    Traces are deterministic given the scenario seed: the generator
    consumes the named ``stream`` of the scenario's
    :class:`~repro.sim.rng.RngRegistry`.
    """

    count: int
    mean_interarrival: float = 260.0
    stream: str = "job-arrivals"

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SpecValidationError("jobs.count: must be >= 1")


@dataclass(frozen=True, kw_only=True)
class PaperTraceSpec(_TraceSpec):
    """The paper's trace: exponential inter-arrivals whose rate drops by
    ``rate_drop_ratio`` at ``rate_drop_time``; ``template`` defaults to
    the paper's job."""

    kind: ClassVar[str] = "paper"
    rate_drop_time: float = 60_000.0
    rate_drop_ratio: float = 4.0
    initial_jobs: int = 2
    template: Optional[JobTemplate] = None

    def materialize(self, rngs: RngRegistry) -> tuple[JobSpec, ...]:
        return tuple(
            paper_job_trace(
                rngs.stream(self.stream),
                count=self.count,
                mean_interarrival=self.mean_interarrival,
                rate_drop_time=self.rate_drop_time,
                rate_drop_ratio=self.rate_drop_ratio,
                template=self.template or PAPER_JOB_TEMPLATE,
                initial_jobs=self.initial_jobs,
            )
        )


@dataclass(frozen=True, kw_only=True)
class UniformTraceSpec(_TraceSpec):
    """Identical jobs with exponential inter-arrivals from ``start``."""

    kind: ClassVar[str] = "uniform"
    start: float = 0.0
    template: JobTemplate

    def materialize(self, rngs: RngRegistry) -> tuple[JobSpec, ...]:
        return tuple(
            uniform_job_trace(
                rngs.stream(self.stream),
                template=self.template,
                count=self.count,
                mean_interarrival=self.mean_interarrival,
                start=self.start,
            )
        )


@dataclass(frozen=True)
class WeightedTemplate:
    """One job class of a differentiated trace and its draw probability."""

    weight: float
    template: JobTemplate


@dataclass(frozen=True, kw_only=True)
class DifferentiatedTraceSpec(_TraceSpec):
    """Mixed job classes drawn from weighted ``templates`` (the
    service-differentiation experiments)."""

    kind: ClassVar[str] = "differentiated"
    start: float = 0.0
    templates: tuple[WeightedTemplate, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.templates:
            raise SpecValidationError("jobs.templates: must be non-empty")

    def materialize(self, rngs: RngRegistry) -> tuple[JobSpec, ...]:
        return tuple(
            differentiated_job_trace(
                rngs.stream(self.stream),
                templates=[(item.template, item.weight) for item in self.templates],
                count=self.count,
                mean_interarrival=self.mean_interarrival,
                start=self.start,
            )
        )


@dataclass(frozen=True)
class NoJobsSpec:
    """No long-running jobs."""

    kind: ClassVar[str] = "none"

    def materialize(self, rngs: RngRegistry) -> tuple[JobSpec, ...]:
        return ()


#: Declarative job-submission trace, generated at materialization; the
#: ``kind`` selects the generator from :mod:`repro.workloads.tracegen`.
JobTraceSpec = Union[
    PaperTraceSpec, UniformTraceSpec, DifferentiatedTraceSpec, NoJobsSpec
]


# ----------------------------------------------------------------------
# The scenario spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable experiment description."""

    name: str
    seed: int
    horizon: float
    topology: TopologySpec
    apps: tuple[AppSpec, ...] = ()
    jobs: JobTraceSpec = field(default_factory=NoJobsSpec)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    costs: ActionCosts = field(default_factory=ActionCosts)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    failures: tuple[NodeFailure, ...] = ()
    faults: Optional[FaultPlanSpec] = None
    network: Optional[NetworkSpec] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecValidationError("name: must be non-empty")
        if not math.isfinite(self.horizon):
            raise SpecValidationError(f"horizon: must be finite, got {self.horizon}")
        if self.horizon <= 0:
            raise SpecValidationError("horizon: must be positive")
        if not self.apps:
            # Every policy (the utility controller included) needs at
            # least one transactional demand curve; fail here by field
            # name instead of mid-simulation.
            raise SpecValidationError(
                "apps: at least one transactional app is required"
            )
        try:
            validate_failure_schedule(self.failures)
        except ConfigurationError as exc:
            raise SpecValidationError(str(exc)) from None
        if self.network is not None:
            if not self.topology.classes:
                raise SpecValidationError(
                    "network: requires a class-based topology "
                    "(topology.classes), which maps node classes to zones"
                )
            declared = set(self.network.zone_names())
            for i, cls in enumerate(self.topology.classes):
                zone = cls.zone or cls.name
                if zone not in declared:
                    raise SpecValidationError(
                        f"topology.classes[{i}]: zone {zone!r} is not "
                        f"declared by the network block "
                        f"(declared: {', '.join(self.network.zone_names())})"
                    )

    # -- materialization ----------------------------------------------
    def materialize(self) -> Scenario:
        """Build the executable :class:`Scenario` this spec describes.

        Stochastic ``faults`` compile here into concrete failure /
        brownout events, deterministically from the scenario seed: the
        plan's named RNG stream is drawn from the same
        :class:`~repro.sim.rng.RngRegistry` as the job trace, so a spec
        materializes to the identical event schedule every time, and
        re-seeding (``Experiment.replicate``) yields fresh fault
        realizations.
        """
        rngs = RngRegistry(self.seed)
        job_specs = self.jobs.materialize(rngs)
        apps = tuple(app.materialize() for app in self.apps)
        topology = self.topology
        failures = self.failures
        brownouts: tuple = ()
        if self.faults is not None:
            try:
                compiled = compile_faults(
                    self.faults,
                    node_ids=topology.node_ids(),
                    node_class_of=topology.node_class_of(),
                    rng=rngs.stream(self.faults.stream),
                    horizon=self.horizon,
                    existing_failures=self.failures,
                    node_zone_of=topology.zone_map(),
                )
            except ConfigurationError as exc:
                raise SpecValidationError(f"faults: {exc}") from None
            failures = tuple(
                sorted(
                    self.failures + compiled.failures,
                    key=lambda f: (f.at, f.node_id),
                )
            )
            brownouts = compiled.brownouts
        return Scenario(
            name=self.name,
            topology=topology,
            apps=apps,
            job_specs=job_specs,
            controller=self.controller,
            costs=self.costs,
            noise=self.noise,
            horizon=self.horizon,
            seed=self.seed,
            failures=failures,
            brownouts=brownouts,
            network=self.network,
        )

    # -- dict / JSON / TOML -------------------------------------------
    def to_dict(self) -> dict:
        """Canonical serializable form: the schema tag plus :func:`encode`."""
        return {"schema": SCENARIO_SCHEMA, **encode(self)}

    @classmethod
    def from_dict(cls, data: object, path: str = "scenario") -> "ScenarioSpec":
        """Check the schema tag, then :func:`decode` the rest."""
        table = dict(_as_table(data, path))
        schema = table.pop("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise SpecValidationError(
                f"{path}.schema: unsupported schema {schema!r} "
                f"(expected {SCENARIO_SCHEMA!r})"
            )
        return decode(cls, table, path)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"invalid JSON: {exc}") from None
        return cls.from_dict(data)

    def to_toml(self) -> str:
        """The spec as a TOML document."""
        return dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "ScenarioSpec":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecValidationError(f"invalid TOML: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        """Load a spec file; the format follows the extension (.json/.toml)."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise SpecValidationError(f"cannot read spec file: {exc}") from None
        if path.suffix == ".toml":
            return cls.from_toml(text)
        if path.suffix == ".json":
            return cls.from_json(text)
        raise SpecValidationError(
            f"unsupported spec file extension {path.suffix!r} (use .json or .toml)"
        )

    def save(self, path: str | Path) -> Path:
        """Write the spec to a .json or .toml file; returns the path."""
        path = Path(path)
        if path.suffix == ".toml":
            path.write_text(self.to_toml())
        elif path.suffix == ".json":
            path.write_text(self.to_json() + "\n")
        else:
            raise SpecValidationError(
                f"unsupported spec file extension {path.suffix!r} "
                "(use .json or .toml)"
            )
        return path

    # -- overrides -----------------------------------------------------
    def with_overrides(self, overrides: Mapping[str, object]) -> "ScenarioSpec":
        """Copy of the spec with dotted-path overrides applied.

        Keys address the :meth:`to_dict` form: ``horizon``,
        ``controller.control_cycle``, ``controller.solver.backend``,
        ``apps.0.rt_goal``, ``topology.num_nodes`` ...  Values replace
        whatever the path holds; the result is re-validated through
        :meth:`from_dict`, so a misspelt path fails by name.
        """
        data = self.to_dict()
        for key, value in overrides.items():
            _apply_override(data, key, value)
        return ScenarioSpec.from_dict(data)


def _apply_override(data: dict, key: str, value: object) -> None:
    parts = key.split(".")
    cursor: object = data
    for depth, part in enumerate(parts[:-1]):
        where = ".".join(parts[: depth + 1])
        if isinstance(cursor, list):
            try:
                cursor = cursor[int(part)]
            except (ValueError, IndexError):
                raise SpecValidationError(
                    f"override {key!r}: {where!r} is not a valid list index"
                ) from None
        elif isinstance(cursor, dict):
            if part not in cursor:
                raise SpecValidationError(
                    f"override {key!r}: unknown field {where!r}"
                )
            cursor = cursor[part]
        else:
            raise SpecValidationError(
                f"override {key!r}: {where!r} is not a table or list"
            )
    last = parts[-1]
    if isinstance(cursor, list):
        try:
            cursor[int(last)] = value
        except (ValueError, IndexError):
            raise SpecValidationError(
                f"override {key!r}: {last!r} is not a valid list index"
            ) from None
    elif isinstance(cursor, dict):
        cursor[last] = value
    else:
        raise SpecValidationError(
            f"override {key!r}: cannot set a field on {type(cursor).__name__}"
        )


# ----------------------------------------------------------------------
# Minimal TOML emitter for the spec's value shapes: scalars, lists of
# scalars / lists, tables, and arrays of tables.  (The stdlib ships a
# TOML parser -- tomllib -- but no writer.)
# ----------------------------------------------------------------------
def _toml_scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        # JSON string escaping is a subset of TOML basic-string escaping.
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(v) for v in value) + "]"
    raise SpecValidationError(f"cannot render {type(value).__name__} as TOML")


def _is_table_array(value: object) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(isinstance(item, Mapping) for item in value)
    )


def _emit_table(data: Mapping, prefix: str, lines: list[str]) -> None:
    tables = []
    table_arrays = []
    for key, value in data.items():
        if isinstance(value, Mapping):
            tables.append((key, value))
        elif _is_table_array(value):
            table_arrays.append((key, value))
        else:
            lines.append(f"{key} = {_toml_scalar(value)}")
    for key, value in tables:
        lines.append("")
        lines.append(f"[{prefix}{key}]")
        _emit_table(value, f"{prefix}{key}.", lines)
    for key, value in table_arrays:
        for item in value:
            lines.append("")
            lines.append(f"[[{prefix}{key}]]")
            _emit_table(item, f"{prefix}{key}.", lines)


def dumps_toml(data: Mapping) -> str:
    """Render a spec dict as TOML (round-trips through ``tomllib``)."""
    lines: list[str] = []
    _emit_table(data, "", lines)
    return "\n".join(lines).lstrip("\n") + "\n"
