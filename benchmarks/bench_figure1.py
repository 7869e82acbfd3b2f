"""FIG1 -- regenerate the paper's Figure 1.

"Actual utility for the transactional workload and average hypothetical
utility for the long-running workload" over the 70 000 s evaluation.
The bench measures the cost of the complete experiment (117 control
cycles over 25 nodes and 800 submitted jobs) and prints the utility
series plus the automated shape validation.
"""

from repro.analysis import validate_paper_run
from repro.api import scenario_spec
from repro.experiments import figure1_series, render_figure1, run_scenario

from conftest import condensed_rows


def test_figure1_full_experiment(benchmark):
    """Benchmark the full paper experiment; validate Figure 1's shape."""
    result = benchmark.pedantic(
        lambda: run_scenario(scenario_spec("paper", seed=42).materialize()),
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )

    data = figure1_series(result)
    print("\n" + render_figure1(result))
    print("\nFigure 1 series (every 10th control cycle):")
    print(condensed_rows(dict(data)))

    report = validate_paper_run(result)
    print("\n" + report.summary())
    report.raise_on_failure()

    # Equalization figure-of-merit the paper demonstrates visually.
    lr = data["long_running"]
    tx = data["transactional"]
    t = data["time"]
    mid = (t >= 0.45 * 70_000.0) & (t <= 0.857 * 70_000.0)
    gap = float(abs(tx[mid] - lr[mid]).mean())
    print(f"\ncontended-window mean utility gap: {gap:.3f} (paper: visually ~0)")
    assert gap < 0.1
