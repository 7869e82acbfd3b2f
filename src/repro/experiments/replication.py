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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from ..analysis.stats import MetricAggregate, aggregate_metrics
from ..codec import Sample, SpecValidationError, _as_table, decode, dumps_json, encode
from ..errors import ConfigurationError
from .runner import RESULT_SCHEMA as _SINGLE_RESULT_SCHEMA
from .runner import RunInfo
from .sweeps import default_metrics, run_sweep, spec_variant

#: Version tag of the serialized replicated-result layout (see module
#: docstring).
REPLICATED_RESULT_SCHEMA = "repro.result-replicated/v1"


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
class SeedRun:
    """One seed's run: its :meth:`ExperimentResult.summary_metrics`."""

    seed: int
    summary: dict[str, Sample]


@dataclass(frozen=True)
class ReplicatedResult:
    """Per-seed summaries plus cross-seed aggregates of one experiment.

    The fields are the ``repro.result-replicated/v1`` layout, so the
    codec reads and writes them.  ``per_seed`` holds one :class:`SeedRun`
    per entry of ``seeds``, in the same order.  Aggregates are derived
    (never stored authoritatively): :attr:`aggregates` recomputes them
    from ``per_seed``, and since
    :meth:`~repro.analysis.stats.MetricAggregate.of` sorts its samples,
    they are invariant under any permutation of the seed order.
    """

    scenario: RunInfo
    policy: str
    seeds: tuple[int, ...]
    per_seed: tuple[SeedRun, ...]

    def __post_init__(self) -> None:
        run_seeds = tuple(run.seed for run in self.per_seed)
        if self.seeds != run_seeds:
            raise ConfigurationError(
                f"seeds {list(self.seeds)} and the per-seed runs' seeds "
                f"{list(run_seeds)} must align"
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

    @functools.cached_property
    def aggregates(self) -> dict[str, MetricAggregate]:
        """Per-metric aggregates across seeds, sorted by metric name."""
        return aggregate_metrics([run.summary for run in self.per_seed])

    def metric(self, name: str) -> MetricAggregate:
        """One metric's aggregate; raises naming the metric when unknown."""
        try:
            return self.aggregates[name]
        except KeyError:
            known = ", ".join(self.aggregates) or "<none>"
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
            **encode(self),
            "aggregates": encode(self.aggregates),
        }

    def to_json(self) -> str:
        """:meth:`to_dict` rendered by :func:`repro.codec.dumps_json`."""
        return dumps_json(self.to_dict())

    @classmethod
    def from_dict(cls, data: object) -> "ReplicatedResult":
        """Rebuild from a ``repro.result-replicated/v1`` payload.

        ``aggregates`` in the payload are ignored and recomputed from
        ``per_seed``, so a hand-edited file cannot carry inconsistent
        statistics.  Errors name the field by its path under ``result``.
        """
        table = dict(_as_table(data, "result"))
        schema = table.pop("schema", None)
        if schema != REPLICATED_RESULT_SCHEMA:
            raise ConfigurationError(
                f"unsupported result schema {schema!r} "
                f"(expected {REPLICATED_RESULT_SCHEMA!r})"
            )
        table.pop("aggregates", None)
        return decode(cls, table, "result")

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
            for name, agg in self.aggregates.items():
                writer.writerow([name, *map(repr, encode(agg).values())])
        seed_path = directory / "per_seed.csv"
        with seed_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "metric", "value"])
            for run in self.per_seed:
                for key in sorted(run.summary):
                    writer.writerow([run.seed, key, repr(float(run.summary[key]))])
        return [agg_path, seed_path]


def load_result(path: str | Path) -> ReplicatedResult:
    """Load *any* saved result file as a :class:`ReplicatedResult`.

    ``repro.result-replicated/v1`` payloads load directly; a plain
    ``repro.result/v1`` payload (one run) degenerates to a single-seed
    replication of its ``summary``, so ``repro report`` can tabulate both
    kinds side by side.  Unknown schemas raise naming the supported tags.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read result file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid result JSON in {path}: {exc}") from None
    schema = _as_table(data, "result").get("schema")
    if schema == REPLICATED_RESULT_SCHEMA:
        return ReplicatedResult.from_dict(data)
    if schema == _SINGLE_RESULT_SCHEMA:
        info = decode(RunInfo, data.get("scenario"), "scenario")
        if info.seed is None:
            raise SpecValidationError("scenario.seed: required field is missing")
        summary = decode(dict[str, Sample], data.get("summary"), "summary")
        run = SeedRun(info.seed, summary)
        return ReplicatedResult(
            scenario=info,
            policy=decode(str, data.get("policy"), "policy"),
            seeds=(run.seed,),
            per_seed=(run,),
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
        scenario_factory=functools.partial(spec_variant, spec.to_dict(), "seed"),
        metric_extractor=default_metrics,
        policy_factory=policy_factory,
        workers=workers,
    )
    return ReplicatedResult(
        scenario=RunInfo(
            name=spec.name,
            base_seed=spec.seed,
            horizon=spec.horizon,
            num_nodes=spec.topology.total_nodes,
        ),
        policy=policy,
        seeds=seed_grid,
        per_seed=tuple(
            SeedRun(point.parameter, dict(point.metrics)) for point in sweep.points
        ),
    )
