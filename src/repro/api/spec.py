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

One codec, :func:`encode` / :func:`decode`, serializes every spec class
and the config, fault and network dataclasses a spec holds, driven by
dataclass fields and their type hints.  Its three rules:

* **Fields map to keys**, in field order; tuples are lists.  Decoding
  checks each value against its type hint and rejects unknown keys,
  both by dotted path; a missing key takes the field's default.
* **Unions are tagged by** ``kind``: each member of a union of spec
  classes (intensity profiles, job traces) has a ``kind`` class
  attribute, written as its table's first key.
* **None and empty tuples are omitted** (a failure without
  ``restore_at``, an unlimited ``change_budget``), because TOML has no
  null.

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
import functools
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Literal, Mapping, Optional, Sequence, Union

from ..cluster.actions import ActionCosts
from ..cluster.topology import NodeClass, zone_map_from_classes
from ..config import ControllerConfig, NoiseConfig
from ..errors import ConfigurationError
from ..experiments.scenario import AppWorkload, NodeFailure, Scenario
from ..faults.models import FaultPlanSpec
from ..faults.plan import compile_faults, validate_failure_schedule
from ..netmodel.spec import NetworkSpec
from ..sim.rng import RngRegistry
from ..workloads.jobs import JobSpec
from ..workloads.profiles import (
    ConstantProfile,
    DiurnalProfile,
    IntensityProfile,
    NoisyProfile,
    StepProfile,
)
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


class SpecValidationError(ConfigurationError):
    """A scenario spec payload is invalid; the message names the field."""


# ----------------------------------------------------------------------
# The codec: dataclasses <-> plain JSON/TOML data, driven by type hints.
# ----------------------------------------------------------------------
_SCALARS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def encode(value: object) -> object:
    """``value`` as plain data: tables, lists and scalars.

    A dataclass becomes a table of its fields (a union member's ``kind``
    first), leaving out ``None`` and empty tuples; tuples become lists.
    """
    if dataclasses.is_dataclass(value):
        kind = getattr(type(value), "kind", None)  # a union member's tag
        data: dict = {} if kind is None else {"kind": kind}
        for f in dataclasses.fields(value):
            item = encode(getattr(value, f.name))
            if item is not None and item != []:
                data[f.name] = item
        return data
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    return value


def decode(tp: object, data: object, path: str) -> object:
    """Build a value of type ``tp`` from plain ``data``.

    Wrong types, unknown keys and missing required fields raise
    :class:`SpecValidationError` naming the value's dotted ``path``; a
    dataclass's own ``ConfigurationError`` gets its table's path
    prepended (``scenario.controller.solver: change_penalty_mhz ...``).
    """
    origin = typing.get_origin(tp)
    if origin is Union:
        return _decode_union(typing.get_args(tp), data, path)
    if origin is Literal:
        options = typing.get_args(tp)
        if data not in options:
            raise SpecValidationError(
                f"{path}: expected one of {', '.join(map(repr, options))}, "
                f"got {data!r}"
            )
        return data
    if origin is tuple:
        if isinstance(data, (str, bytes, Mapping)) or not isinstance(data, Sequence):
            raise SpecValidationError(
                f"{path}: expected a list, got {type(data).__name__}"
            )
        items, args = data, typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(items)
        elif len(items) != len(args):
            raise SpecValidationError(
                f"{path}: expected a list of {len(args)} items, got {len(items)}"
            )
        return tuple(
            decode(arg, item, f"{path}[{i}]")
            for i, (arg, item) in enumerate(zip(args, items))
        )
    if dataclasses.is_dataclass(tp):
        return _decode_dataclass(tp, data, path)
    if tp in _SCALARS:
        # bool is an int subclass: a bool is only ever a bool.
        is_bool = isinstance(data, bool)
        allowed = (int, float) if tp is float else tp
        if is_bool is not (tp is bool) or not isinstance(data, allowed):
            raise SpecValidationError(
                f"{path}: expected {_SCALARS[tp]}, got {type(data).__name__}"
            )
        return float(data) if tp is float else data
    raise TypeError(f"{path}: no codec for type {tp!r}")


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> dict:
    """``field name -> (type hint, required)`` of a dataclass."""
    hints, missing = typing.get_type_hints(cls), dataclasses.MISSING
    return {
        f.name: (hints[f.name], f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(cls)
    }


def _as_table(data: object, path: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise SpecValidationError(
            f"{path}: expected a table/object, got {type(data).__name__}"
        )
    return data


def _decode_dataclass(cls: type, data: object, path: str) -> object:
    table = _as_table(data, path)
    fields = _field_types(cls)
    unknown = sorted(key for key in table if key not in fields)
    if unknown:
        raise SpecValidationError(
            f"{path}.{unknown[0]}: unknown field "
            f"(known: {', '.join(fields) or 'none'})"
        )
    kwargs = {}
    for name, (tp, required) in fields.items():
        if name in table:
            kwargs[name] = decode(tp, table[name], f"{path}.{name}")
        elif required:
            raise SpecValidationError(f"{path}.{name}: required field is missing")
    try:
        return cls(**kwargs)
    except SpecValidationError:
        raise  # spec classes name their own fields
    except ConfigurationError as exc:
        raise SpecValidationError(f"{path}: {exc}") from None


def _decode_union(options: tuple, data: object, path: str) -> object:
    if data is None and type(None) in options:
        return None
    options = tuple(option for option in options if option is not type(None))
    if len(options) == 1:
        return decode(options[0], data, path)
    kinds = {getattr(option, "kind", None): option for option in options}
    if None not in kinds:
        table = _as_table(data, path)
        if "kind" not in table:
            raise SpecValidationError(f"{path}.kind: required field is missing")
        kind = table["kind"]
        if not isinstance(kind, str) or kind not in kinds:
            raise SpecValidationError(
                f"{path}.kind: unknown kind {kind!r} "
                f"(known: {', '.join(sorted(kinds))})"
            )
        fields = {key: value for key, value in table.items() if key != "kind"}
        return _decode_dataclass(kinds[kind], fields, path)
    # An untagged union of a scalar and a list: the data's shape decides.
    is_list = isinstance(data, (list, tuple))
    shaped = [o for o in options if (typing.get_origin(o) is tuple) is is_list]
    return decode((shaped or options)[0], data, path)


# ----------------------------------------------------------------------
# Intensity-profile specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConstantProfileSpec:
    """Time-invariant intensity (the paper's transactional shape)."""

    kind: ClassVar[str] = "constant"
    value: float

    def build(self) -> IntensityProfile:
        return ConstantProfile(self.value)


@dataclass(frozen=True)
class StepProfileSpec:
    """Piecewise-constant intensity: ``(start_time, rate)`` breakpoints."""

    kind: ClassVar[str] = "step"
    steps: tuple[tuple[float, float], ...]

    def build(self) -> IntensityProfile:
        return StepProfile(list(self.steps))


@dataclass(frozen=True)
class DiurnalProfileSpec:
    """Sinusoidal day/night intensity pattern."""

    kind: ClassVar[str] = "diurnal"
    base: float
    amplitude: float
    period: float = 86_400.0
    phase: float = 0.0

    def build(self) -> IntensityProfile:
        return DiurnalProfile(self.base, self.amplitude, self.period, self.phase)


@dataclass(frozen=True)
class NoisyProfileSpec:
    """Multiplicative lognormal noise over an inner profile."""

    kind: ClassVar[str] = "noisy"
    base: ProfileSpec
    rel_std: float
    interval: float = 600.0
    seed: int = 0

    def build(self) -> IntensityProfile:
        return NoisyProfile(
            self.base.build(), rel_std=self.rel_std, interval=self.interval,
            seed=self.seed,
        )


#: Any serializable intensity-profile description.
ProfileSpec = Union[
    ConstantProfileSpec, StepProfileSpec, DiurnalProfileSpec, NoisyProfileSpec
]


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
#: Node shape of a homogeneous topology when a field is left unset.
_HOMOGENEOUS_DEFAULTS = {
    "processors": 4,
    "mhz_per_processor": 3000.0,
    "memory_mb": 4000.0,
}


@dataclass(frozen=True)
class TopologySpec:
    """Cluster topology: homogeneous node count or heterogeneous classes.

    Exactly one form applies: either ``num_nodes`` identical nodes
    described by the ``processors``/``mhz_per_processor``/``memory_mb``
    fields (4 x 3000 MHz and 4000 MB when unset), or a non-empty
    ``classes`` list of :class:`~repro.cluster.topology.NodeClass`
    entries, which leaves the homogeneous fields unset.
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

    def node_ids(self) -> list[str]:
        """Node identifiers in registration order, matching the scenario's
        cluster build (``node000`` ... for homogeneous topologies,
        ``<class>-000`` ... per class otherwise)."""
        return list(self.node_class_of()) or [
            f"node{i:03d}" for i in range(self.total_nodes)
        ]

    def node_class_of(self) -> dict[str, str]:
        """``node_id -> class name`` map (empty for homogeneous topologies)."""
        return {
            f"{cls.name}-{i:03d}": cls.name
            for cls in self.classes
            for i in range(cls.count)
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
    profile: ProfileSpec
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
        return AppWorkload(spec=self._tx_spec(), profile=self.profile.build())


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
                    node_zone_of=zone_map_from_classes(topology.classes),
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
        # A class-based topology's node_* fields describe its first class.
        shape = topology.classes[0] if topology.classes else topology
        return Scenario(
            name=self.name,
            num_nodes=topology.total_nodes,
            node_processors=shape.processors,
            node_mhz=shape.mhz_per_processor,
            node_memory_mb=shape.memory_mb,
            node_classes=topology.classes,
            apps=apps,
            job_specs=job_specs,
            controller=self.controller,
            costs=self.costs,
            noise=self.noise,
            horizon=self.horizon,
            seed=self.seed,
            failures=failures,
            brownouts=brownouts,
            network=None if self.network is None else self.network.build(),
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
