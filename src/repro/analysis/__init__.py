"""Analysis toolkit: summary statistics, terminal plots and automated
paper-shape validation."""

from .ascii_plot import ascii_plot
from .stats import (
    JobOutcomeStats,
    MetricAggregate,
    aggregate_metrics,
    job_outcome_stats,
    job_outcomes_by_class,
)
from .validate import CheckResult, ValidationReport, validate_paper_run

__all__ = [
    "ascii_plot",
    "MetricAggregate",
    "aggregate_metrics",
    "JobOutcomeStats",
    "job_outcome_stats",
    "job_outcomes_by_class",
    "CheckResult",
    "ValidationReport",
    "validate_paper_run",
]
