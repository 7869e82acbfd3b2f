"""Shared fixtures for the benchmark/experiment harness.

Each bench file regenerates one artifact of DESIGN.md's experiment index
(FIG1, FIG2, BASE, ABL-*, PERF, VALID).  Heavyweight experiment results
are session-scoped so several bench files can report on one run.
"""

from __future__ import annotations

import pytest

from repro.api import scenario_spec
from repro.experiments import run_scenario


@pytest.fixture(scope="session")
def paper_result():
    """One full-scale (25-node) paper-scenario run, shared across benches."""
    return run_scenario(scenario_spec("paper", seed=42).materialize())


def condensed_rows(data: dict, every: int = 10, fmt: str = "{:>12.3f}") -> str:
    """Render every Nth sample of named series as fixed-width rows."""
    names = list(data)
    header = "".join(f"{name:>24s}" for name in names)
    lines = [header]
    n = len(data[names[0]])
    for i in range(0, n, every):
        lines.append("".join(f"{float(data[name][i]):>24.3f}" for name in names))
    return "\n".join(lines)
