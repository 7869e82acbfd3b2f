"""Multi-seed replication of experiments.

The paper's evaluation claims (utility equalization, service
differentiation, overload behavior) are statements about *distributions*
of outcomes, so a single seeded run is weak evidence.  This module runs
the same :class:`~repro.api.spec.ScenarioSpec` under one policy across
many seeds -- fanned out over the :func:`~repro.experiments.sweeps.run_sweep`
process pool -- and aggregates every :meth:`ExperimentResult.summary_metrics`
key into a :class:`~repro.analysis.stats.MetricAggregate` (n, mean,
sample std, 95% Student-t confidence interval, min, max).

:class:`ReplicatedResult` serializes under the stable
``repro.result-replicated/v1`` schema::

    {
      "schema": "repro.result-replicated/v1",
      "scenario": {"name", "base_seed", "horizon", "num_nodes"},
      "policy": "<registry name>",
      "seeds": [7, 8, 9],
      "per_seed": [{"seed": 7, "summary": {<summary_metrics()>}}, ...],
      "aggregates": {"<metric>": {"n", "mean", "std",
                                  "ci95_lo", "ci95_hi", "min", "max"}, ...}
    }

Non-finite numbers serialize as JSON ``null`` (the same strict-JSON
convention as ``repro.result/v1``) and load back as NaN.  ``aggregates``
is recomputed from ``per_seed`` on load, so the two sections cannot
drift.  ``repro report`` renders saved payloads of either result schema
without re-running anything.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from ..analysis.stats import MetricAggregate, aggregate_metrics
from ..errors import ConfigurationError
from .runner import RESULT_SCHEMA as _SINGLE_RESULT_SCHEMA
from .runner import _null_non_finite
from .scenario import Scenario
from .sweeps import default_metrics, run_sweep

#: Version tag of the serialized replicated-result layout (see module
#: docstring).
REPLICATED_RESULT_SCHEMA = "repro.result-replicated/v1"


def _seed_variant_scenario(spec_data: Mapping[str, object], seed: object) -> Scenario:
    """Module-level (picklable) factory: the spec re-seeded with ``seed``."""
    from ..api.spec import ScenarioSpec

    spec = ScenarioSpec.from_dict(spec_data)
    return spec.with_overrides({"seed": int(seed)}).materialize()  # type: ignore[call-overload]


def resolve_seeds(
    base_seed: int,
    *,
    seeds: Optional[Sequence[int]] = None,
    replications: Optional[int] = None,
) -> tuple[int, ...]:
    """The seed list a replication will run.

    Either an explicit ``seeds`` sequence (must be non-empty, integer and
    free of duplicates -- running the same seed twice adds no statistical
    information) or ``replications`` consecutive seeds starting at
    ``base_seed``.
    """
    if seeds is not None and replications is not None:
        raise ConfigurationError("give either seeds or replications, not both")
    if seeds is not None:
        out = tuple(int(s) for s in seeds)
        if not out:
            raise ConfigurationError("seeds must be non-empty")
        if len(set(out)) != len(out):
            raise ConfigurationError("seeds must be distinct")
        return out
    if replications is None or replications < 1:
        raise ConfigurationError("replications must be a positive integer")
    return tuple(range(base_seed, base_seed + replications))


@dataclass(frozen=True)
class ReplicatedResult:
    """Per-seed summaries plus cross-seed aggregates of one experiment.

    ``per_seed`` holds one :meth:`ExperimentResult.summary_metrics`
    mapping per entry of ``seeds``, in the same order.  Aggregates are
    derived (never stored authoritatively): :meth:`metrics` recomputes
    them from ``per_seed``, and since
    :meth:`~repro.analysis.stats.MetricAggregate.of` sorts its samples,
    they are invariant under any permutation of the seed order.
    """

    scenario_name: str
    base_seed: int
    horizon: float
    num_nodes: int
    policy: str
    seeds: tuple[int, ...]
    per_seed: tuple[Mapping[str, float], ...]
    _aggregates: dict[str, MetricAggregate] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.seeds) != len(self.per_seed):
            raise ConfigurationError(
                f"seeds ({len(self.seeds)}) and per-seed summaries "
                f"({len(self.per_seed)}) must align"
            )
        if not self.seeds:
            raise ConfigurationError("a replicated result needs >= 1 seed")

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    @property
    def replications(self) -> int:
        """Number of replications (seeds) the result covers."""
        return len(self.seeds)

    def metrics(self) -> dict[str, MetricAggregate]:
        """Per-metric aggregates across seeds (cached after first call)."""
        if not self._aggregates:
            self._aggregates.update(aggregate_metrics(list(self.per_seed)))
        return dict(self._aggregates)

    def metric(self, name: str) -> MetricAggregate:
        """One metric's aggregate; raises naming the metric when unknown."""
        try:
            return self.metrics()[name]
        except KeyError:
            known = ", ".join(sorted(self.metrics())) or "<none>"
            raise ConfigurationError(
                f"unknown metric {name!r} (available: {known})"
            ) from None

    # ------------------------------------------------------------------
    # Serialization (repro.result-replicated/v1)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Serializable form in the ``repro.result-replicated/v1`` schema."""
        return {
            "schema": REPLICATED_RESULT_SCHEMA,
            "scenario": {
                "name": self.scenario_name,
                "base_seed": self.base_seed,
                "horizon": self.horizon,
                "num_nodes": self.num_nodes,
            },
            "policy": self.policy,
            "seeds": list(self.seeds),
            "per_seed": [
                {"seed": seed, "summary": dict(summary)}
                for seed, summary in zip(self.seeds, self.per_seed)
            ],
            "aggregates": {
                name: agg.to_dict() for name, agg in sorted(self.metrics().items())
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """:meth:`to_dict` as strict (RFC 8259) JSON; non-finite -> null."""
        return json.dumps(
            _null_non_finite(self.to_dict()), indent=indent, allow_nan=False
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ReplicatedResult":
        """Rebuild from a ``repro.result-replicated/v1`` payload.

        ``aggregates`` in the payload are ignored and recomputed from
        ``per_seed``, so a hand-edited file cannot carry inconsistent
        statistics.
        """
        schema = data.get("schema")
        if schema != REPLICATED_RESULT_SCHEMA:
            raise ConfigurationError(
                f"unsupported result schema {schema!r} "
                f"(expected {REPLICATED_RESULT_SCHEMA!r})"
            )
        scenario = data.get("scenario")
        if not isinstance(scenario, Mapping):
            raise ConfigurationError("result payload is missing 'scenario'")
        raw = data.get("per_seed")
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ConfigurationError("result payload is missing 'per_seed'")
        seeds: list[int] = []
        per_seed: list[dict[str, float]] = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, Mapping) or "seed" not in entry:
                raise ConfigurationError("per_seed entries need a 'seed' field")
            seeds.append(_scalar(int, entry, "seed", None, f"per_seed[{i}].seed"))
            summary = entry.get("summary")
            if not isinstance(summary, Mapping):
                raise ConfigurationError("per_seed entries need a 'summary' table")
            per_seed.append({key: _as_sample(value) for key, value in summary.items()})
        return cls(
            scenario_name=_scalar(str, scenario, "name", "?", "scenario.name"),
            base_seed=_scalar(
                int, scenario, "base_seed", seeds[0] if seeds else 0,
                "scenario.base_seed",
            ),
            horizon=_scalar(float, scenario, "horizon", math.nan, "scenario.horizon"),
            num_nodes=_scalar(int, scenario, "num_nodes", 0, "scenario.num_nodes"),
            policy=_scalar(str, data, "policy", "?", "policy"),
            seeds=tuple(seeds),
            per_seed=tuple(per_seed),
        )

    @classmethod
    def from_json(cls, text: str) -> "ReplicatedResult":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid result JSON: {exc}") from None
        if not isinstance(data, Mapping):
            raise ConfigurationError("result payload must be a JSON object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "ReplicatedResult":
        """Load a saved ``repro.result-replicated/v1`` JSON file."""
        return cls.from_json(_read_result_file(path))

    def save(self, path: str | Path) -> Path:
        """Write the payload as JSON; returns the path."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    # ------------------------------------------------------------------
    # CSV export
    # ------------------------------------------------------------------
    def export_csv(self, directory: str | Path) -> list[Path]:
        """Write ``aggregates.csv`` (metric,n,mean,std,ci95_lo,ci95_hi,
        min,max) and ``per_seed.csv`` (seed,metric,value) under
        ``directory``; returns the written paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        agg_path = directory / "aggregates.csv"
        with agg_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["metric", "n", "mean", "std", "ci95_lo", "ci95_hi", "min", "max"]
            )
            for name, agg in sorted(self.metrics().items()):
                writer.writerow(
                    [
                        name,
                        agg.n,
                        repr(agg.mean),
                        repr(agg.std),
                        repr(agg.ci95_lo),
                        repr(agg.ci95_hi),
                        repr(agg.minimum),
                        repr(agg.maximum),
                    ]
                )
        seed_path = directory / "per_seed.csv"
        with seed_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "metric", "value"])
            for seed, summary in zip(self.seeds, self.per_seed):
                for key in sorted(summary):
                    writer.writerow([seed, key, repr(float(summary[key]))])
        return [agg_path, seed_path]


def _as_sample(value: object) -> float:
    """JSON summary value -> float sample (null -> NaN)."""
    if value is None:
        return math.nan
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"summary values must be numbers or null, got {type(value).__name__}"
        )
    return float(value)


def _scalar(tp: type, table: Mapping, key: str, default: object, path: str) -> Any:
    """``table[key]`` (``default`` when absent), type-checked by the spec
    codec: a wrong type raises a ``SpecValidationError`` naming ``path``."""
    from ..api.spec import decode  # late: the spec layer imports this package

    return decode(tp, table.get(key, default), path)


def _read_result_file(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read result file: {exc}") from None


def load_result(path: str | Path) -> ReplicatedResult:
    """Load *any* saved result file as a :class:`ReplicatedResult`.

    ``repro.result-replicated/v1`` payloads load directly; a plain
    ``repro.result/v1`` payload (one run) degenerates to a single-seed
    replication, so ``repro report`` can tabulate both kinds side by
    side.  Unknown schemas raise naming the supported tags.
    """
    try:
        data = json.loads(_read_result_file(path))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid result JSON in {path}: {exc}") from None
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{path}: result payload must be a JSON object")
    schema = data.get("schema")
    if schema == REPLICATED_RESULT_SCHEMA:
        return ReplicatedResult.from_dict(data)
    if schema == _SINGLE_RESULT_SCHEMA:
        scenario = data.get("scenario")
        if not isinstance(scenario, Mapping):
            raise ConfigurationError(f"{path}: result payload missing 'scenario'")
        summary = data.get("summary")
        if not isinstance(summary, Mapping):
            raise ConfigurationError(f"{path}: result payload missing 'summary'")
        seed = _scalar(int, scenario, "seed", 0, "scenario.seed")
        return ReplicatedResult(
            scenario_name=_scalar(str, scenario, "name", "?", "scenario.name"),
            base_seed=seed,
            horizon=_scalar(float, scenario, "horizon", math.nan, "scenario.horizon"),
            num_nodes=_scalar(int, scenario, "num_nodes", 0, "scenario.num_nodes"),
            policy=_scalar(str, data, "policy", "?", "policy"),
            seeds=(seed,),
            per_seed=({k: _as_sample(v) for k, v in summary.items()},),
        )
    raise ConfigurationError(
        f"{path}: unsupported result schema {schema!r} (supported: "
        f"{_SINGLE_RESULT_SCHEMA!r}, {REPLICATED_RESULT_SCHEMA!r})"
    )


def replicate_spec(
    spec,
    *,
    policy: str = "utility",
    seeds: Optional[Sequence[int]] = None,
    replications: Optional[int] = None,
    workers: Optional[int] = None,
) -> ReplicatedResult:
    """Run ``spec`` once per seed under ``policy`` and aggregate.

    Seed variants are produced with ``spec.with_overrides({"seed": s})``
    -- everything else in the scenario is held fixed -- and fan out over
    the :func:`run_sweep` process pool when ``workers`` > 1.  Only the
    per-seed summary-metric mappings travel back from the workers, so
    replication scales to wide seed grids.

    Scope of the seed: the scenario seed drives every stream of the
    scenario's :class:`~repro.sim.rng.RngRegistry` -- the job-arrival
    trace and the runner's measurement noise -- so those vary per
    replication.  A :class:`~repro.workloads.profiles.NoisyProfile`'s
    intensity noise carries its *own* seed as spec data and is therefore
    identical across replications (common random numbers: every policy
    and every seed faces the same demand trajectory, which sharpens
    policy comparisons but means the CIs describe variability
    *conditional on* that trajectory).  Vary it explicitly with e.g.
    ``spec.with_overrides({"apps.0.profile.seed": s})`` if demand-path
    variation is wanted.  A spec with no stochastic stream at all (job
    kind ``"none"``, zero noise) replicates to identical runs and
    honestly reports zero-width CIs.
    """
    # Late imports: the policy registry imports the runner (and the spec
    # layer imports this package), so binding them at module-import time
    # would be circular.
    from ..api.spec import ScenarioSpec
    from ..baselines.registry import get_policy

    if not isinstance(spec, ScenarioSpec):
        raise ConfigurationError(
            "replicate_spec needs a ScenarioSpec (use Experiment.replicate "
            "or repro.api.resolve_spec for names/files)"
        )
    seed_grid = resolve_seeds(spec.seed, seeds=seeds, replications=replications)
    policy_factory = get_policy(policy)  # fail fast on unknown policy names
    sweep = run_sweep(
        name=f"{spec.name}:replicate",
        grid=list(seed_grid),
        scenario_factory=functools.partial(_seed_variant_scenario, spec.to_dict()),
        metric_extractor=default_metrics,
        policy_factory=policy_factory,
        workers=workers,
    )
    return ReplicatedResult(
        scenario_name=spec.name,
        base_seed=spec.seed,
        horizon=spec.horizon,
        num_nodes=spec.topology.total_nodes,
        policy=policy,
        seeds=seed_grid,
        per_seed=tuple(dict(point.metrics) for point in sweep.points),
    )
