"""CI gates: the decide() anchors must not regress.

Two gates, both measured fresh on the CI runner and compared
self-relatively (so hardware differences between the committing machine
and the runner cannot fail the job spuriously):

1. **Anchor** -- the steady-state decide() on the 100 nodes x 1000
   jobs grid point, machine-normalized, against the committed
   ``BENCH_control_cycle.json``.
2. **Sharded headline** -- the 1000 nodes x 10000 jobs point: the
   sharded critical path (partition/route/merge overhead + slowest
   shard; see ``bench_control_cycle.py``) must still beat the
   *freshly measured* monolithic median by the required speedup.  Both
   sides run on the same machine in the same process, so no
   normalization is needed.  A committed artifact without the sharded
   row is stale (exit 2): regenerate it.

Knobs:

* ``BENCH_ANCHOR_TOLERANCE``    -- allowed relative regression of the
  anchor (default 0.25).
* ``BENCH_ANCHOR_REPEATS``      -- decide() repetitions for the anchor
  (default 15: CI timers are noisy and the comparison is a gate, not a
  measurement).
* ``BENCH_SHARDED_MIN_SPEEDUP`` -- required fresh monolithic/critical-
  path ratio at the headline point (default 1.0: sharding must not
  lose).
* ``BENCH_SHARDED_REPEATS``     -- repetitions at the headline point
  (default 5; each decide costs tens of ms).
* ``BENCH_OUTPUT``              -- committed artifact path (default
  ``BENCH_control_cycle.json``; run from the repo root).

Exit codes: 0 within tolerance, 1 regression, 2 missing/invalid artifact.
"""

from __future__ import annotations

import json
import os
import sys

from bench_control_cycle import (
    HEADLINE_POINT,
    _artifact_path,
    _time_decides,
    machine_calibration_ms,
    measure_sharded_point,
)

ANCHOR_NODES = 100
ANCHOR_JOBS = 1000


def _committed_doc() -> dict | None:
    try:
        with open(_artifact_path()) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return doc if doc.get("bench") == "control_cycle_scaling" else None


def committed_anchor() -> dict | None:
    """The committed artifact's anchor point, or ``None``."""
    doc = _committed_doc()
    if doc is None:
        return None
    for point in doc.get("points", []):
        if point.get("nodes") == ANCHOR_NODES and point.get("jobs") == ANCHOR_JOBS:
            return point
    return None


def committed_sharded() -> dict | None:
    """The committed artifact's sharded headline row, or ``None``."""
    doc = _committed_doc()
    return doc.get("sharded") if doc is not None else None


def check_anchor() -> int:
    tolerance = float(os.environ.get("BENCH_ANCHOR_TOLERANCE", "0.25"))
    repeats = int(os.environ.get("BENCH_ANCHOR_REPEATS", "15"))

    committed = committed_anchor()
    if committed is None or "decide_median_normalized" not in committed:
        print(
            f"no committed {ANCHOR_NODES}x{ANCHOR_JOBS} anchor in "
            f"{_artifact_path()!r}; regenerate BENCH_control_cycle.json"
        )
        return 2

    calibration = machine_calibration_ms()
    median_ms, p95_ms, _ = _time_decides(ANCHOR_NODES, ANCHOR_JOBS, repeats)
    fresh_norm = median_ms / calibration
    committed_norm = float(committed["decide_median_normalized"])
    limit = committed_norm * (1.0 + tolerance)

    print(f"{ANCHOR_NODES}x{ANCHOR_JOBS} decide() anchor (machine-normalized)")
    print(f"  committed: {committed_norm:8.3f}  ({committed['decide_median_ms']:.2f} ms)")
    print(f"  fresh:     {fresh_norm:8.3f}  ({median_ms:.2f} ms, p95 {p95_ms:.2f} ms,")
    print(f"              calibration {calibration:.3f} ms, repeats {repeats})")
    print(f"  limit:     {limit:8.3f}  (tolerance {tolerance:.0%})")

    if fresh_norm > limit:
        print("REGRESSION: fresh anchor exceeds the committed one beyond tolerance")
        return 1
    print("OK")
    return 0


def check_sharded_headline() -> int:
    min_speedup = float(os.environ.get("BENCH_SHARDED_MIN_SPEEDUP", "1.0"))
    repeats = int(os.environ.get("BENCH_SHARDED_REPEATS", "5"))

    committed = committed_sharded()
    if committed is None or "critical_path_median_ms" not in committed:
        print(
            f"no committed sharded headline in {_artifact_path()!r}; "
            "regenerate BENCH_control_cycle.json (schema version 3)"
        )
        return 2

    num_nodes, num_jobs = HEADLINE_POINT
    shards = int(committed.get("shards", 4))
    fresh = measure_sharded_point(num_nodes, num_jobs, shards, repeats=repeats)

    print(f"{num_nodes}x{num_jobs} sharded headline (x{shards} shards)")
    print(
        f"  committed: critical path {committed['critical_path_median_ms']:8.2f} ms "
        f"(mono {committed['monolithic_median_ms']:.2f} ms, "
        f"{committed.get('critical_path_speedup', float('nan')):.2f}x)"
    )
    print(
        f"  fresh:     critical path {fresh['critical_path_median_ms']:8.2f} ms "
        f"(mono {fresh['monolithic_median_ms']:.2f} ms, "
        f"{fresh['critical_path_speedup']:.2f}x, repeats {repeats})"
    )
    print(f"  required:  speedup >= {min_speedup:.2f}x (fresh mono / fresh critical path)")

    if fresh["critical_path_speedup"] < min_speedup:
        print("REGRESSION: sharded critical path no longer beats the monolithic path")
        return 1
    print("OK")
    return 0


def main() -> int:
    anchor_rc = check_anchor()
    sharded_rc = check_sharded_headline()
    return max(anchor_rc, sharded_rc)


if __name__ == "__main__":
    sys.exit(main())
