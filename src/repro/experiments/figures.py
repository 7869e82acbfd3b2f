"""Regeneration of the paper's evaluation figures.

* **Figure 1** -- actual utility of the transactional workload and average
  hypothetical utility of the long-running workload over time.
* **Figure 2** -- CPU power allocated to each workload, together with the
  CPU demand each would need to achieve its maximum utility.

Both figures come from a single run of the paper scenario; this module
extracts the series, renders them as terminal plots and CSV, and runs the
shape validation.  Usable as a library (the benches import it) and as a
CLI::

    python -m repro.experiments.figures --figure both --scale 1.0
"""

from __future__ import annotations

import argparse
import sys
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


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point (also installed as ``repro-experiment``)."""
    parser = argparse.ArgumentParser(
        description="Reproduce the HPDC'08 evaluation figures."
    )
    parser.add_argument("--figure", choices=["1", "2", "both"], default="both")
    parser.add_argument("--scale", type=float, default=1.0, help="cluster scale factor")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--csv-dir", type=Path, default=None, help="write figure CSVs to this directory"
    )
    parser.add_argument(
        "--no-validate", action="store_true", help="skip shape validation"
    )
    args = parser.parse_args(argv)

    result, report = run_paper_experiment(scale=args.scale, seed=args.seed)

    if args.figure in ("1", "both"):
        print(render_figure1(result))
        print()
    if args.figure in ("2", "both"):
        print(render_figure2(result))
        print()

    outcomes = result.job_outcomes()
    print(
        f"cycles={result.cycles}  jobs completed={outcomes['completed']:.0f}"
        f"/{outcomes['submitted']:.0f}  mean achieved utility="
        f"{outcomes['mean_utility']:.3f}"
    )
    log = result.action_log
    print(
        f"actions: starts={log.starts} stops={log.stops} suspends={log.suspensions} "
        f"resumes={log.resumptions} migrations={log.migrations}"
    )

    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
        write_csv(figure1_series(result), args.csv_dir / "figure1.csv")
        write_csv(figure2_series(result), args.csv_dir / "figure2.csv")
        print(f"CSV written to {args.csv_dir}")

    if not args.no_validate:
        print("\nShape validation:")
        print(report.summary())
        return 0 if report.passed else 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI glue
    sys.exit(main())
