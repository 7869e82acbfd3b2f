"""Declarative experiment API -- the public facade.

Everything needed to describe, run and export an experiment lives here:

* :class:`ScenarioSpec` -- a serializable scenario description
  (``to_dict``/``from_dict``, JSON and TOML round-trips) that
  materializes into an executable
  :class:`~repro.experiments.scenario.Scenario`; its optional ``faults``
  block (:class:`FaultPlanSpec` and friends, re-exported from
  :mod:`repro.faults`) declares seeded stochastic failure processes;
* the **scenario registry** (:func:`scenario_spec`,
  :func:`available_scenarios`) naming the repository's evaluation
  scenarios: ``paper``, ``smoke``, ``failure-recovery``,
  ``service-differentiation``, ``consolidation``,
  ``heterogeneous-cluster``, ``overload``,
  ``multi-app-differentiation``, ``diurnal``, ``chaos-soak``;
* the **policy registry** (:func:`get_policy`, :func:`available_policies`,
  re-exported from :mod:`repro.baselines.registry`) naming the
  utility-driven controller and every baseline: ``utility``,
  ``static-partition``, ``fcfs``, ``edf``, ``tx-priority``, plus the
  fault-injecting ``chaos-utility``;
* :class:`Experiment` / :func:`run_experiment` -- the entry point tying
  the two together, returning an
  :class:`~repro.experiments.runner.ExperimentResult` with
  ``summary_metrics()`` / ``to_json()`` / ``export_csv()``;
* :func:`run_sweep` -- fan-out parameter grids (``workers=N`` uses a
  process pool);
* **replication** -- :meth:`Experiment.replicate` / :func:`replicate_spec`
  run one spec across many seeds and aggregate every summary metric into
  mean / std / 95% CI / min / max
  (:class:`~repro.experiments.replication.ReplicatedResult`, schema
  ``repro.result-replicated/v1``); :func:`load_result` reads saved
  payloads of either result schema back for ``repro report``.

The ``python -m repro`` CLI (:mod:`repro.cli`) is a thin shell over this
module.
"""

from ..baselines.registry import available_policies, get_policy
from ..core.backends import available_backends
from ..experiments.replication import (
    REPLICATED_RESULT_SCHEMA,
    ReplicatedResult,
    load_result,
    replicate_spec,
)
from ..experiments.runner import ExperimentResult
from ..experiments.sweeps import run_sweep, sweep_table
from ..faults import (
    BrownoutFaultSpec,
    CrashFaultSpec,
    FaultPlanSpec,
    FlapFaultSpec,
    ZoneOutageSpec,
)
from .experiment import Experiment, SpecLike, resolve_spec, run_experiment
from .scenarios import (
    available_scenarios,
    get_scenario,
    scenario_spec,
)
from .spec import (
    SCENARIO_SCHEMA,
    AppSpec,
    DifferentiatedTraceSpec,
    JobTraceSpec,
    NoJobsSpec,
    PaperTraceSpec,
    ScenarioSpec,
    SpecValidationError,
    TopologySpec,
    UniformTraceSpec,
    WeightedTemplate,
    dumps_toml,
)

__all__ = [
    # spec layer
    "ScenarioSpec",
    "TopologySpec",
    "AppSpec",
    "JobTraceSpec",
    "PaperTraceSpec",
    "UniformTraceSpec",
    "DifferentiatedTraceSpec",
    "NoJobsSpec",
    "WeightedTemplate",
    "SpecValidationError",
    "SCENARIO_SCHEMA",
    "dumps_toml",
    # stochastic fault plans
    "FaultPlanSpec",
    "CrashFaultSpec",
    "ZoneOutageSpec",
    "BrownoutFaultSpec",
    "FlapFaultSpec",
    # scenario registry
    "get_scenario",
    "available_scenarios",
    "scenario_spec",
    # policy registry
    "get_policy",
    "available_policies",
    # solver backends (for `repro list`)
    "available_backends",
    # execution
    "Experiment",
    "run_experiment",
    "resolve_spec",
    "SpecLike",
    "ExperimentResult",
    "run_sweep",
    "sweep_table",
    # replication
    "ReplicatedResult",
    "REPLICATED_RESULT_SCHEMA",
    "replicate_spec",
    "load_result",
]
