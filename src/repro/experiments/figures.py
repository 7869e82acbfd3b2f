"""Regeneration of the paper's evaluation figures.

* **Figure 1** -- actual utility of the transactional workload and average
  hypothetical utility of the long-running workload over time.
* **Figure 2** -- CPU power allocated to each workload, together with the
  CPU demand each would need to achieve its maximum utility.

Both figures come from a single run of the paper scenario; this module
extracts the series, renders them as terminal plots and CSV, and runs the
shape validation.  The benches import it, and
``examples/paper_experiment.py`` is its command line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from ..analysis.ascii_plot import ascii_plot
from ..analysis.validate import ValidationReport, validate_paper_run
from ..api.scenarios import scenario_spec
from .runner import ExperimentResult, PolicyFactory, run_scenario
from .scenario import Scenario


def figure1_series(result: ExperimentResult) -> Mapping[str, np.ndarray]:
    """Figure 1's series: utility of both workloads over time."""
    rec = result.recorder
    t = rec.series("tx_utility").times
    return {
        "time": t,
        "transactional": rec.series("tx_utility").values,
        "long_running": rec.series("lr_utility").resample(t),
    }


def figure2_series(result: ExperimentResult) -> Mapping[str, np.ndarray]:
    """Figure 2's series: demands and satisfied (allocated) CPU power."""
    rec = result.recorder
    t = rec.series("tx_allocation").times
    return {
        "time": t,
        "transactional_demand": rec.series("tx_demand").resample(t),
        "long_running_demand": rec.series("lr_demand").resample(t),
        "satisfied_transactional": rec.series("tx_allocation").values,
        "satisfied_long_running": rec.series("lr_allocation").resample(t),
    }


def render_figure1(result: ExperimentResult) -> str:
    """Terminal rendering of Figure 1."""
    data = figure1_series(result)
    return ascii_plot(
        {
            "transactional": (data["time"], data["transactional"]),
            "long-running": (data["time"], data["long_running"]),
        },
        title="Figure 1: workload utility over time",
        y_label="utility",
    )


def render_figure2(result: ExperimentResult) -> str:
    """Terminal rendering of Figure 2."""
    data = figure2_series(result)
    return ascii_plot(
        {
            "tx demand": (data["time"], data["transactional_demand"]),
            "lr demand": (data["time"], data["long_running_demand"]),
            "tx satisfied": (data["time"], data["satisfied_transactional"]),
            "lr satisfied": (data["time"], data["satisfied_long_running"]),
        },
        title="Figure 2: CPU power allocated vs demand (MHz)",
        y_label="MHz",
    )


def write_csv(series: Mapping[str, np.ndarray], path: Path) -> None:
    """Dump named columns (sharing the ``time`` axis) to a CSV file."""
    names = list(series)
    columns = [np.asarray(series[name], dtype=float) for name in names]
    rows = np.column_stack(columns)
    header = ",".join(names)
    np.savetxt(path, rows, delimiter=",", header=header, comments="")


def run_paper_experiment(
    scale: float = 1.0,
    seed: int = 42,
    scenario: Optional[Scenario] = None,
    policy_factory: Optional[PolicyFactory] = None,
) -> tuple[ExperimentResult, ValidationReport]:
    """Run the paper scenario (optionally scaled) and validate its shape."""
    if scenario is None:
        scenario = scenario_spec("paper", seed=seed, scale=scale).materialize()
    result = run_scenario(scenario, policy_factory)
    report = validate_paper_run(result)
    return result, report
