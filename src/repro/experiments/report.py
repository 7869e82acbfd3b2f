"""Experiment reporting helpers.

Formats run results as text tables for the benches, the examples and
EXPERIMENTS.md.  Everything returns strings; nothing prints directly, so
callers control where output goes.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from ..analysis.stats import MetricAggregate, job_outcome_stats
from .replication import ReplicatedResult
from .runner import ExperimentResult


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], indent: str = ""
) -> str:
    """Fixed-width text table (headers + rows of stringifiable cells)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        line = indent + "  ".join(c.ljust(w) for c, w in zip(row, widths))
        lines.append(line.rstrip())
        if r == 0:
            lines.append(indent + "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def summarize_run(result: ExperimentResult, label: str = "") -> str:
    """One-paragraph run summary: utilities, allocations, job outcomes."""
    rec = result.recorder
    horizon = result.scenario.horizon
    outcome = job_outcome_stats(result.jobs, horizon)
    tx_u = rec.series("tx_utility").time_average(0.0, horizon)
    lr_u = rec.series("lr_utility").time_average(0.0, horizon)
    tx_a = rec.series("tx_allocation").time_average(0.0, horizon)
    lr_a = rec.series("lr_allocation").time_average(0.0, horizon)
    log = result.action_log
    name = label or result.scenario.name
    lines = [
        f"run {name!r}: {result.cycles} control cycles over {horizon:.0f} s",
        (
            f"  time-avg utility: tx={tx_u:.3f} lr={lr_u:.3f}; "
            f"time-avg allocation: tx={tx_a:.0f} MHz lr={lr_a:.0f} MHz"
        ),
        (
            f"  jobs: {outcome.completed}/{outcome.submitted} completed, "
            f"{outcome.on_time} on time; mean achieved utility "
            f"{outcome.mean_utility:.3f}; mean tardiness {outcome.mean_tardiness:.0f} s"
        ),
        (
            f"  actions: {log.starts} starts, {log.stops} stops, "
            f"{log.suspensions} suspends, {log.resumptions} resumes, "
            f"{log.migrations} migrations"
        ),
    ]
    return "\n".join(lines)


#: Metrics `repro report` and the replicated baseline comparison show by
#: default: the paper-facing subset of ``summary_metrics()`` (utilities,
#: job outcomes, churn), excluding wall-clock telemetry.
REPORT_METRICS = (
    "tx_utility",
    "lr_utility",
    "min_utility",
    "utility_gap",
    "jobs_completed",
    "on_time_fraction",
    "mean_tardiness",
    "disruptive_actions",
)

#: Opt-in metrics appended to the defaults only when at least one result
#: actually sampled them (finite aggregate), so runs without the
#: corresponding knob keep their report layout unchanged.
OPTIONAL_REPORT_METRICS = ("optimality_gap_mean",)


def _sampled_optional_metrics(
    per_result_metrics: Sequence[Mapping[str, MetricAggregate]],
) -> list[str]:
    """The optional metrics with at least one finite sample across results."""
    return [
        key
        for key in OPTIONAL_REPORT_METRICS
        if any(
            key in metrics and metrics[key].n > 0
            for metrics in per_result_metrics
        )
    ]


def format_aggregate(agg: MetricAggregate) -> str:
    """``mean ± ci95-half-width`` cell text (point estimate when n=1)."""
    if agg.n == 0 or math.isnan(agg.mean):
        return "n/a"
    if agg.n == 1:
        return f"{agg.mean:.4g}"
    return f"{agg.mean:.4g} ± {agg.ci95_halfwidth:.2g}"


def replication_summary(result: ReplicatedResult, label: str = "") -> str:
    """One-paragraph summary of a replicated run (CLI output)."""
    name = label or result.scenario.name
    seeds = ", ".join(str(s) for s in result.seeds)
    metrics = result.aggregates
    lines = [
        (
            f"replicated {name!r} under policy {result.policy!r}: "
            f"n={result.replications} seeds [{seeds}]"
        ),
        "  per-metric mean ± 95% CI half-width:",
    ]
    shown = (*REPORT_METRICS, *_sampled_optional_metrics([metrics]))
    for key in shown:
        if key in metrics:
            lines.append(f"    {key:<20} {format_aggregate(metrics[key])}")
    return "\n".join(lines)


def replication_table(
    results: Sequence[ReplicatedResult],
    metrics: Optional[Sequence[str]] = None,
) -> str:
    """Policy-comparison table over replicated results.

    One row per result (labeled ``policy`` and, when the inputs span
    several scenarios, ``scenario/policy``), one column per metric, cells
    ``mean ± 95% CI half-width`` -- the baseline-comparison layout the
    ``repro report`` subcommand renders from saved result files.
    """
    if not results:
        return "(no results)"
    if metrics is None:
        available = set()
        per_result = [result.aggregates for result in results]
        for aggregates in per_result:
            available |= set(aggregates)
        metrics = [m for m in REPORT_METRICS if m in available]
        metrics += _sampled_optional_metrics(per_result)
    scenarios = {result.scenario.name for result in results}
    headers = ["policy", "n", *metrics]
    rows = []
    for result in results:
        label = (
            result.policy
            if len(scenarios) == 1
            else f"{result.scenario.name}/{result.policy}"
        )
        aggregates = result.aggregates
        cells = []
        for m in metrics:
            if m not in aggregates:
                cells.append("n/a")
                continue
            agg = aggregates[m]
            cell = format_aggregate(agg)
            # NaN samples are dropped before aggregation, so a metric's
            # effective n can fall below the seed count; say so rather
            # than let the row's n column overstate the sample size.
            if 0 < agg.n < result.replications:
                cell += f" [n={agg.n}]"
            cells.append(cell)
        rows.append([label, str(result.replications), *cells])
    return format_table(headers, rows)


def comparison_table(results: Mapping[str, ExperimentResult]) -> str:
    """Side-by-side policy comparison (used by the BASE bench)."""
    headers = [
        "policy",
        "tx utility",
        "lr utility",
        "min utility",
        "jobs done",
        "on-time",
        "mean tardiness (s)",
        "disruptive actions",
    ]
    rows = []
    for name, result in results.items():
        rec = result.recorder
        horizon = result.scenario.horizon
        outcome = job_outcome_stats(result.jobs, horizon)
        tx_u = rec.series("tx_utility").time_average(0.0, horizon)
        lr_u = rec.series("lr_utility").time_average(0.0, horizon)
        rows.append(
            [
                name,
                f"{tx_u:.3f}",
                f"{lr_u:.3f}",
                f"{min(tx_u, lr_u):.3f}",
                f"{outcome.completed}/{outcome.submitted}",
                (
                    f"{outcome.on_time_fraction:.0%}"
                    if outcome.completed
                    else "n/a"
                ),
                f"{outcome.mean_tardiness:.0f}" if outcome.completed else "n/a",
                str(result.action_log.disruptive_total),
            ]
        )
    return format_table(headers, rows)
