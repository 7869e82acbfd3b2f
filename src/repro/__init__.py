"""repro -- reproduction of *Managing SLAs of Heterogeneous Workloads
using Dynamic Application Placement* (Carrera, Steinder, Whalley, Torres,
Ayguadé; HPDC 2008).

A simulated virtualized data center hosting two workload types --
transactional web applications with response-time SLAs and long-running
jobs with completion-time SLAs -- managed by a utility-driven placement
controller that equalizes workload satisfaction via hypothetical-utility
prediction, CPU arbitration, and memory-constrained dynamic placement
with suspend/resume/migrate control actions.

Quickstart (the declarative facade, :mod:`repro.api`)::

    from repro import run_experiment

    result = run_experiment("smoke", policy="fcfs")
    print(result.summary_metrics())

or from a shell: ``python -m repro run smoke`` (see ``repro list``).
Figure regeneration::

    from repro import run_paper_experiment, render_figure1

    result, report = run_paper_experiment(scale=0.2)
    print(render_figure1(result))
    print(report.summary())
"""

from ._version import __version__
from .api import Experiment, ScenarioSpec, run_experiment, scenario_spec
from .config import ControllerConfig, NoiseConfig
from .core.controller import UtilityDrivenController
from .experiments.figures import (
    figure1_series,
    figure2_series,
    render_figure1,
    render_figure2,
    run_paper_experiment,
)
from .experiments.runner import ExperimentResult, ExperimentRunner, run_scenario
from .experiments.scenario import Scenario

__all__ = [
    "__version__",
    "Experiment",
    "ScenarioSpec",
    "run_experiment",
    "scenario_spec",
    "ControllerConfig",
    "NoiseConfig",
    "UtilityDrivenController",
    "Scenario",
    "ExperimentRunner",
    "ExperimentResult",
    "run_scenario",
    "run_paper_experiment",
    "figure1_series",
    "figure2_series",
    "render_figure1",
    "render_figure2",
]
