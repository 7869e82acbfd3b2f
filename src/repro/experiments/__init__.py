"""Experiment harness: scenarios, the end-to-end runner, figure
regeneration, reporting and parameter sweeps."""

from .figures import (
    figure1_series,
    figure2_series,
    render_figure1,
    render_figure2,
    run_paper_experiment,
    write_csv,
)
from .replication import (
    REPLICATED_RESULT_SCHEMA,
    ReplicatedResult,
    load_result,
    replicate_spec,
    resolve_seeds,
)
from .report import (
    comparison_table,
    format_table,
    replication_summary,
    replication_table,
    summarize_run,
)
from .runner import (
    ExperimentResult,
    ExperimentRunner,
    PlacementPolicy,
    PolicyFactory,
    default_policy_factory,
    run_scenario,
)
from .scenario import AppWorkload, NodeFailure, Scenario
from .sweeps import (
    SweepPoint,
    SweepPointError,
    SweepResult,
    default_metrics,
    run_sweep,
    sweep_table,
)

__all__ = [
    "Scenario",
    "AppWorkload",
    "NodeFailure",
    "ExperimentRunner",
    "ExperimentResult",
    "PlacementPolicy",
    "PolicyFactory",
    "default_policy_factory",
    "run_scenario",
    "figure1_series",
    "figure2_series",
    "render_figure1",
    "render_figure2",
    "run_paper_experiment",
    "write_csv",
    "summarize_run",
    "comparison_table",
    "format_table",
    "replication_summary",
    "replication_table",
    "run_sweep",
    "sweep_table",
    "SweepResult",
    "SweepPoint",
    "SweepPointError",
    "default_metrics",
    "ReplicatedResult",
    "REPLICATED_RESULT_SCHEMA",
    "replicate_spec",
    "resolve_seeds",
    "load_result",
]
