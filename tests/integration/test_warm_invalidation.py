"""No invalidation end-to-end: warm runs == cold runs, through failures.

The failure-recovery scenario kills and restores a node mid-run; the
overload scenario ramps transactional demand far beyond capacity.  The
controller never drops its warm level, so every cycle after the first
runs warm through both -- and still produces placements and metrics
identical to a cold-started controller's: warm starts are verified and
therefore result-preserving.
"""

import math

from repro.api import run_experiment

#: Summary keys that legitimately differ between a warm and a cold run:
#: wall-clock and the telemetry of the warm machinery itself.
_TELEMETRY_KEYS = {"decide_ms_mean", "warm_cycle_fraction", "eq_cache_hit_rate"}

#: Series recording the control plane's own behaviour (timings, cache
#: statistics); every other series must match bit for bit.
_TELEMETRY_SERIES_PREFIXES = ("stage_ms:", "cycle_warm", "eq_evals", "eq_cache_hits")


def _is_telemetry_series(name):
    return name.startswith(_TELEMETRY_SERIES_PREFIXES)


def _assert_runs_identical(warm, cold):
    assert warm.cycles == cold.cycles

    a, b = warm.summary_metrics(), cold.summary_metrics()
    assert a.keys() == b.keys()
    for key in a.keys() - _TELEMETRY_KEYS:
        assert a[key] == b[key] or (
            math.isnan(a[key]) and math.isnan(b[key])
        ), key

    warm_entries = {e.vm_id: e for e in warm.final_placement}
    cold_entries = {e.vm_id: e for e in cold.final_placement}
    assert warm_entries == cold_entries

    warm_series = [n for n in warm.recorder.series_names() if not _is_telemetry_series(n)]
    cold_series = [n for n in cold.recorder.series_names() if not _is_telemetry_series(n)]
    assert warm_series == cold_series
    for name in warm_series:
        sa, sb = warm.recorder.series(name), cold.recorder.series(name)
        assert list(sa.times) == list(sb.times), name
        assert list(sa.values) == list(sb.values), name


def _assert_warm_after_the_first_cycle(warm):
    assert warm.recorder.counter("cold_cycles") == 1.0
    assert warm.recorder.counter("warm_cycles") == warm.cycles - 1


def test_failure_recovery_warm_matches_cold():
    warm = run_experiment("failure-recovery")
    cold = run_experiment(
        "failure-recovery", overrides={"controller.warm_start": False}
    )
    _assert_runs_identical(warm, cold)

    # The node failure and the restore leave the controller warm.
    assert warm.recorder.counter("node_failures") >= 1
    _assert_warm_after_the_first_cycle(warm)
    assert warm.summary_metrics()["warm_cycle_fraction"] > 0.5
    # The cold run reports itself as fully cold.
    assert cold.recorder.counter("warm_cycles") == 0.0
    assert cold.summary_metrics()["warm_cycle_fraction"] == 0.0


def test_overload_demand_shift_warm_matches_cold():
    warm = run_experiment("overload")
    cold = run_experiment("overload", overrides={"controller.warm_start": False})
    _assert_runs_identical(warm, cold)

    _assert_warm_after_the_first_cycle(warm)
