"""Parameter sweeps over scenarios.

Generic machinery for the ablation experiments: run a scenario factory
over a grid of parameter values, collect per-run summary metrics, and
tabulate them.  Used by the ABL-CYCLE and ABL-UTIL benches and by the
examples.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ..errors import ConfigurationError, SimulationError
from .runner import ExperimentResult, PolicyFactory, run_scenario
from .scenario import Scenario

#: Builds a scenario from one sweep-parameter value.
ScenarioFactory = Callable[[object], Scenario]
#: Extracts named metrics from a finished run.
MetricExtractor = Callable[[ExperimentResult], Mapping[str, float]]


class SweepPointError(SimulationError):
    """A sweep grid point failed; the message names the parameter assignment.

    Raised in the worker (so it pickles back through the process pool as
    a plain single-argument exception) wrapping whatever the scenario
    factory, the run or the metric extractor raised.  Without it, a
    failure in an N-point parallel grid surfaces as a bare traceback
    with no hint of *which* assignment broke.
    """


@dataclass(frozen=True)
class SweepPoint:
    """One grid point's outcome."""

    parameter: object
    metrics: Mapping[str, float]


@dataclass(frozen=True)
class SweepResult:
    """All grid points of one sweep."""

    name: str
    points: tuple[SweepPoint, ...]

    def metric(self, key: str) -> list[float]:
        """One metric's values across the grid, in grid order."""
        return [float(p.metrics[key]) for p in self.points]

    def parameters(self) -> list[object]:
        """The grid values, in order."""
        return [p.parameter for p in self.points]


def default_metrics(result: ExperimentResult) -> Mapping[str, float]:
    """Standard sweep metrics: utilities, equalization, outcomes, churn.

    Delegates to :meth:`ExperimentResult.summary_metrics`, the one stable
    scalar summary shared by sweeps, the CLI and JSON/CSV export.
    """
    return result.summary_metrics()


def spec_variant(spec_data: Mapping[str, object], path: str, value: object) -> Scenario:
    """The scenario of the spec ``spec_data`` with one dotted-path
    override, ``path = value``.

    Module-level, so ``functools.partial(spec_variant, data, path)`` is a
    picklable :data:`ScenarioFactory`: ``repro sweep`` varies ``path``
    over its grid, and replication varies ``"seed"``.
    """
    from ..api.spec import ScenarioSpec  # late: the spec layer imports this package

    return ScenarioSpec.from_dict(spec_data).with_overrides({path: value}).materialize()


def _run_point(
    args: tuple[
        str, ScenarioFactory, MetricExtractor, Optional[PolicyFactory], object
    ],
) -> SweepPoint:
    """One grid point, from factory call to extracted metrics.

    Module-level so worker processes can unpickle it; the whole run
    happens in the worker and only the (small) metrics mapping returns.
    Any failure is re-raised as :class:`SweepPointError` naming the
    sweep and the grid value that produced it.
    """
    name, scenario_factory, metric_extractor, policy_factory, value = args
    try:
        scenario = scenario_factory(value)
        result = run_scenario(scenario, policy_factory)
        return SweepPoint(parameter=value, metrics=dict(metric_extractor(result)))
    except Exception as exc:
        # `raise ... from exc` alone is not enough here: exceptions that
        # cross a ProcessPoolExecutor are re-pickled from (type, args)
        # and lose __cause__ -- and with it the worker traceback.  Embed
        # the formatted worker traceback in the message (it is part of
        # args, so it survives the round trip) and still chain the
        # original for the serial path.
        raise SweepPointError(
            f"sweep {name!r} failed at grid point {value!r}: "
            f"{type(exc).__name__}: {exc}\n"
            f"--- worker traceback ---\n{traceback.format_exc()}"
        ) from exc


def run_sweep(
    name: str,
    grid: Sequence[object],
    scenario_factory: ScenarioFactory,
    metric_extractor: MetricExtractor = default_metrics,
    policy_factory: Optional[PolicyFactory] = None,
    workers: Optional[int] = None,
) -> SweepResult:
    """Run ``scenario_factory(value)`` for every grid value and collect metrics.

    ``workers`` > 1 fans the grid points out over a process pool (each
    point is an independent simulation, so ablation grids scale to all
    cores).  Results are identical to the serial path: every run is
    seeded by its scenario (built deterministically from its grid value)
    and ``ProcessPoolExecutor.map`` preserves grid order.  The factories
    and extractor must then be picklable -- module-level functions or
    ``functools.partial`` over module-level functions, not closures.

    A raising grid point aborts the sweep with a :class:`SweepPointError`
    whose message names the failing parameter assignment.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError("workers must be a positive integer")
    tasks = [
        (name, scenario_factory, metric_extractor, policy_factory, value)
        for value in grid
    ]
    if workers is None or workers == 1 or len(tasks) <= 1:
        points = [_run_point(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            points = list(pool.map(_run_point, tasks))
    return SweepResult(name=name, points=tuple(points))


def sweep_table(sweep: SweepResult, parameter_label: str = "value") -> str:
    """Text table of a sweep (parameters as rows, metrics as columns)."""
    if not sweep.points:
        return f"(sweep {sweep.name!r}: empty)"
    metric_names = sorted(sweep.points[0].metrics)
    headers = [parameter_label, *metric_names]
    rows = []
    for point in sweep.points:
        rows.append(
            [
                str(point.parameter),
                *(f"{float(point.metrics[m]):.4g}" for m in metric_names),
            ]
        )
    from .report import format_table

    return format_table(headers, rows)
