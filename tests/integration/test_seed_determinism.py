"""Seed-determinism regression: same spec + same seed => identical result.

Replication statistics are only meaningful if the per-seed runs are
deterministic functions of (spec, seed).  For every registered scenario,
two independent runs of the same spec must serialize to byte-identical
``repro.result/v1`` JSON once the documented wall-time fields -- the
``stage_ms:*`` / ``shard_ms:*`` recorder series and the
``decide_ms_mean`` summary metric, which measure host wall-clock -- are
scrubbed.  A different seed must change the payload (the trace and noise
streams actually consume the seed).

The sharded control plane gets the same treatment: a 4-shard run must be
deterministic, and the ``shard_workers`` value must not change a byte of
it.  Every shard decides in the calling process, so the field is unread;
perfbench's ``scale-sharded`` workload still sets ``shard_workers=2`` and
checks its outcome digest against a ``shard_workers=1`` run.
"""

import json

import pytest

from repro.api import Experiment, available_scenarios, scenario_spec

#: Two control cycles: enough for every scenario to place, arbitrate and
#: record, while keeping 2 runs x all scenarios fast.
HORIZON = 1200.0


def scrubbed_result_json(spec, policy: str = "utility") -> str:
    """Run the spec and return its JSON with wall-time fields removed."""
    result = Experiment.from_spec(spec, policy=policy).run()
    data = json.loads(result.to_json())
    data["summary"].pop("decide_ms_mean", None)
    series = data["recorder"]["series"]
    for name in [
        n for n in series if n.startswith("stage_ms:") or n.startswith("shard_ms:")
    ]:
        del series[name]
    return json.dumps(data, sort_keys=True)


@pytest.mark.parametrize("name", available_scenarios())
def test_same_seed_is_byte_identical(name):
    spec = scenario_spec(name).with_overrides({"horizon": HORIZON})
    first = scrubbed_result_json(spec)
    second = scrubbed_result_json(spec)
    assert first == second, f"scenario {name!r} is not seed-deterministic"


def test_different_seed_changes_the_payload():
    spec = scenario_spec("smoke").with_overrides({"horizon": HORIZON})
    base = scrubbed_result_json(spec)
    other = scrubbed_result_json(spec.with_overrides({"seed": 8}))
    assert base != other


def test_baseline_policy_is_deterministic_too():
    spec = scenario_spec("smoke").with_overrides({"horizon": HORIZON})
    assert scrubbed_result_json(spec, "fcfs") == scrubbed_result_json(spec, "fcfs")


def _sharded_spec(workers: int):
    return scenario_spec("smoke").with_overrides(
        {
            "horizon": HORIZON,
            "controller.shards": 4,
            "controller.shard_workers": workers,
        }
    )


def test_sharded_same_seed_is_byte_identical():
    first = scrubbed_result_json(_sharded_spec(1))
    second = scrubbed_result_json(_sharded_spec(1))
    assert first == second, "sharded path is not seed-deterministic"


def test_shard_workers_changes_no_decision():
    """``shard_workers`` is unread: 1 and 2 serialize byte-identically."""
    one = scrubbed_result_json(_sharded_spec(1))
    two = scrubbed_result_json(_sharded_spec(2))
    assert one == two, "shard_workers changed the sharded decisions"
