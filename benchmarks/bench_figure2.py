"""FIG2 -- regenerate the paper's Figure 2.

"CPU power allocated to each workload and CPU demands to achieve maximum
utility."  Uses the shared full-scale run for the series and validation;
the benchmarked unit is the end-to-end series extraction and rendering
pipeline over the 117-cycle recorder.
"""

import numpy as np

from repro.experiments import figure2_series, render_figure2

from conftest import condensed_rows


def test_figure2_series_and_shape(benchmark, paper_result):
    """Extract/render Figure 2 from the full run; check its shape facts."""
    data = benchmark(lambda: figure2_series(paper_result))

    print("\n" + render_figure2(paper_result))
    print("\nFigure 2 series (every 10th control cycle, MHz):")
    print(condensed_rows(dict(data)))

    t = np.asarray(data["time"])
    tx_demand = np.asarray(data["transactional_demand"])
    lr_demand = np.asarray(data["long_running_demand"])
    tx_sat = np.asarray(data["satisfied_transactional"])
    lr_sat = np.asarray(data["satisfied_long_running"])
    capacity = 300_000.0

    # The paper's Figure 2 facts, as assertions:
    # 1. transactional demand is roughly constant (~70% of capacity);
    assert 0.55 < tx_demand.mean() / capacity < 0.85
    assert np.std(tx_demand) / tx_demand.mean() < 0.15
    # 2. long-running demand ramps far past capacity;
    assert lr_demand[-1] > lr_demand[0]
    assert lr_demand.max() > capacity
    # 3. the transactional workload is squeezed below its demand while
    #    jobs pile up, and the satisfied totals never exceed capacity;
    mid = (t >= 0.45 * 70_000.0) & (t <= 0.857 * 70_000.0)
    assert tx_sat[mid].mean() < 0.85 * tx_demand[mid].mean()
    assert np.all(tx_sat + lr_sat <= capacity * (1 + 1e-9))
    # 4. "uneven distribution of resources": satisfaction ratios differ.
    ratio_gap = np.mean(tx_sat[mid] / tx_demand[mid] - lr_sat[mid] / lr_demand[mid])
    print(f"\nmean satisfaction-ratio gap (tx - lr) in contention: {ratio_gap:.2f}")
    assert ratio_gap > 0.15
