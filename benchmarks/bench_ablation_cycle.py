"""ABL-CYCLE -- control-cycle length versus responsiveness and churn.

The paper re-places every 600 s.  Shorter cycles react faster (smaller
equalization error between decisions) but issue more placement actions;
longer cycles are cheap but sluggish.  Sweeps the cycle length on the
scaled scenario.
"""

import os

from repro.api import scenario_spec
from repro.config import ControllerConfig
from repro.experiments import run_scenario
from repro.experiments.sweeps import default_metrics, run_sweep, sweep_table

CYCLES = (150.0, 300.0, 600.0, 1200.0)

#: Grid points fan out over a process pool (scenario_for is module-level,
#: hence picklable); identical results to the serial path by contract.
_WORKERS = min(len(CYCLES), os.cpu_count() or 1)


def scenario_for(cycle: float):
    return scenario_spec("paper", scale=0.2, seed=42).materialize().with_controller(
        ControllerConfig(control_cycle=float(cycle))
    )


def test_cycle_length_sweep(benchmark):
    """Benchmark the paper's 600 s configuration; sweep the alternatives."""
    result = benchmark.pedantic(
        lambda: run_scenario(scenario_for(600.0)),
        rounds=2, iterations=1, warmup_rounds=0,
    )
    assert result.cycles > 100

    sweep = run_sweep(
        "control-cycle", CYCLES, scenario_for, default_metrics, workers=_WORKERS
    )
    print("\n" + sweep_table(sweep, parameter_label="cycle (s)"))

    gaps = sweep.metric("utility_gap")
    actions = sweep.metric("disruptive_actions")
    # Shorter cycles must not be *worse* at equalization than the longest,
    # and must churn at least as much as the longest cycle.
    assert gaps[0] <= gaps[-1] + 0.05
    assert actions[0] >= actions[-1]
    # Every setting still equalizes reasonably.
    assert all(g < 0.2 for g in gaps)
