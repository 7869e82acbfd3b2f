"""Golden outcomes: what every registered scenario decides, pinned across changes.

Each run in :data:`RUNS` is fingerprinted by what the simulation
decided, not by how long it took to decide it:

* action totals by kind;
* job phase counts and each completed job's completion time;
* every summary metric and recorder counter;
* each recorder series' sample count, sum of finite samples and count
  of non-finite samples.

Names matching :data:`UNPINNED` describe how a cycle was computed --
wall-clock timings and the control plane's cache telemetry -- and are
left out.  The warm/cold differential suite pins warm/cold identity.

Counts (integers and which keys are present) compare exactly; floats at
relative ``1e-9`` (absolute ``1e-12`` near zero), NaN equal to NaN.  The
fingerprint is compared field by field instead of hashed, so the ulp
drift of another numpy/scipy build passes while one changed action
fails.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py --check  # explain differences
    PYTHONPATH=src python tests/golden/regen.py          # rewrite outcomes.json

Both modes print, per run, each discrete field that moved and the
largest float delta.  ``--check`` exits 1 on any difference.  A change
that rewrites the file must say why.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_PATH = Path(__file__).with_name("outcomes.json")
REGEN_COMMAND = "PYTHONPATH=src python tests/golden/regen.py"

#: Summary metrics, counters and series left out of the fingerprint:
#: wall-clock timings, then the control plane's cache telemetry.
UNPINNED = (
    "stage_ms:*", "shard_ms:*", "exact_ms", "decide_ms_mean", "decide_overruns",
    "cycle_warm", "eq_*", "warm_cycles", "cold_cycles", "invalidations:*",
    "warm_cycle_fraction", "eq_cache_hit_rate",
)

ACTION_KINDS = (
    "starts", "stops", "suspensions", "resumptions", "migrations", "adjustments",
)
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class GoldenRun:
    """One pinned run: a registered scenario (or a spec file relative to
    the repository root) under a named policy, at full horizon."""

    run_id: str
    source: str
    policy: str = "utility"
    overrides: tuple[tuple[str, object], ...] = ()

    def execute(self):
        from repro.api import Experiment

        source = REPO_ROOT / self.source if self.source.endswith(".toml") else self.source
        overrides = dict(self.overrides) or None
        return Experiment.from_spec(source, policy=self.policy, overrides=overrides).run()


def _runs() -> tuple[GoldenRun, ...]:
    from repro.api import available_scenarios

    return (
        *(GoldenRun(name, name) for name in available_scenarios()),
        # The baseline, degraded and sharded paths.
        GoldenRun("smoke@fcfs", "smoke", policy="fcfs"),
        GoldenRun("smoke@chaos-utility", "smoke", policy="chaos-utility"),
        GoldenRun("smoke@shards=4", "smoke", overrides=(("controller.shards", 4),)),
        # The only pinned run with 12,800 jobs, where ``job10000`` sorts
        # before ``job9999``.
        GoldenRun("scale-1000", "perfbench/specs/scale-1000.toml"),
    )


RUNS = _runs()


def pinned(name: str) -> bool:
    return not any(fnmatch.fnmatchcase(name, pattern) for pattern in UNPINNED)


def fingerprint(result) -> dict:
    """The decided outcome of one run, as plain JSON data."""
    jobs = sorted(result.jobs, key=lambda job: job.job_id)
    recorder = result.recorder
    series = {}
    for name in sorted(recorder.series_names()):
        if pinned(name):
            values = recorder.series(name).values.tolist()
            finite = [v for v in values if math.isfinite(v)]
            series[name] = {
                "n": len(values),
                "sum": math.fsum(finite),
                "nonfinite": len(values) - len(finite),
            }
    summary = result.summary_metrics()
    counters = recorder.counters
    return {
        "cycles": result.cycles,
        "actions": {kind: getattr(result.action_log, kind) for kind in ACTION_KINDS},
        "phases": dict(sorted(Counter(job.phase.value for job in jobs).items())),
        "completions": {
            job.job_id: job.stats.completed_at
            for job in jobs
            if job.stats.completed_at is not None
        },
        "summary": {k: summary[k] for k in sorted(summary) if pinned(k)},
        "counters": {k: counters[k] for k in sorted(counters) if pinned(k)},
        "series": series,
    }


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
_MISSING = "<missing>"


class Difference(NamedTuple):
    path: str
    expected: object
    actual: object

    @property
    def discrete(self) -> bool:
        """Whether a count or a key's presence moved (not a float)."""
        return not (isinstance(self.expected, float) and isinstance(self.actual, float))

    @property
    def rel(self) -> float:
        a, b = self.expected, self.actual
        if math.isnan(a) or math.isnan(b):
            return math.inf
        return abs(a - b) / max(abs(a), abs(b), ABS_TOL)


def _same(expected: object, actual: object) -> bool:
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isnan(expected) or math.isnan(actual):
            return math.isnan(expected) and math.isnan(actual)
        return math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return type(expected) is type(actual) and expected == actual


def compare(expected: object, actual: object, path: str = "") -> list[Difference]:
    """Every leaf where ``actual`` departs from ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        diffs = []
        for key in [*expected, *(k for k in actual if k not in expected)]:
            sub = f"{path}.{key}" if path else str(key)
            if key not in actual:
                diffs.append(Difference(sub, expected[key], _MISSING))
            elif key not in expected:
                diffs.append(Difference(sub, _MISSING, actual[key]))
            else:
                diffs.extend(compare(expected[key], actual[key], sub))
        return diffs
    return [] if _same(expected, actual) else [Difference(path, expected, actual)]


def explain(run_id: str, diffs: list[Difference], limit: int = 12) -> str:
    """What moved in one run: each discrete field, then the largest float delta."""
    discrete = [d for d in diffs if d.discrete]
    floats = sorted((d for d in diffs if not d.discrete), key=lambda d: -d.rel)
    by_section = Counter(d.path.split(".")[0] for d in diffs)
    lines = [
        f"{run_id}: {len(diffs)} field(s) differ "
        f"({', '.join(f'{n} in {section}' for section, n in sorted(by_section.items()))}); "
        f"discrete fields moved: {'yes' if discrete else 'no'}"
    ]
    for d in discrete[:limit]:
        lines.append(f"  discrete  {d.path}: {d.expected!r} -> {d.actual!r}")
    if len(discrete) > limit:
        lines.append(f"  ... and {len(discrete) - limit} more discrete field(s)")
    if floats:
        d = floats[0]
        lines.append(
            f"  largest float delta ({len(floats)} float field(s) differ): "
            f"{d.path}: {d.expected!r} -> {d.actual!r} (rel {d.rel:.3g})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The golden file
# ----------------------------------------------------------------------
def load_golden(path: Path = GOLDEN_PATH) -> dict:
    """``run_id -> fingerprint`` from the committed file (empty if absent)."""
    if not path.exists():
        return {}
    return json.loads(path.read_text())["runs"]


def save_golden(runs: dict, path: Path = GOLDEN_PATH) -> None:
    payload = {"regenerate": REGEN_COMMAND, "runs": runs}
    path.write_text(json.dumps(payload, indent=1, sort_keys=False) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare against outcomes.json without rewriting it; exit 1 on a difference",
    )
    args = parser.parse_args(argv)

    golden = load_golden()
    fresh = {}
    changed = False
    for run in RUNS:
        fresh[run.run_id] = fingerprint(run.execute())
        if run.run_id not in golden:
            print(f"{run.run_id}: not in {GOLDEN_PATH.name}")
            changed = True
            continue
        diffs = compare(golden[run.run_id], fresh[run.run_id])
        print(explain(run.run_id, diffs) if diffs else f"{run.run_id}: unchanged")
        changed = changed or bool(diffs)
    for run_id in sorted(golden.keys() - fresh.keys()):
        print(f"{run_id}: no longer a golden run")
        changed = True
    if args.check:
        return 1 if changed else 0
    save_golden(fresh)
    print(f"wrote {GOLDEN_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
