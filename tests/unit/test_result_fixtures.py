"""The saved-result formats, pinned by committed files.

``tests/fixtures/result-v1.json`` was written by ``repro run smoke
--horizon 1200 --policy fcfs --json FILE`` and
``tests/fixtures/result-replicated-v1.json`` by the same command with
``--replications 2``.  They pin the ``repro.result/v1`` and
``repro.result-replicated/v1`` layouts and are never regenerated: a
change that alters either layout fails here.  ``fcfs`` records no
wall-clock series, so a fresh run reproduces every value; numbers are
compared at relative 1e-9 because numpy and scipy are not pinned.
"""

import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.replication import load_result

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: Committed file -> the `repro run smoke --horizon 1200 --policy fcfs`
#: flags that wrote it.
RUN_FLAGS = {
    "result-v1.json": [],
    "result-replicated-v1.json": ["--replications", "2"],
}


def _seed_summaries(data):
    """``(seed, summary)`` pairs of a saved payload of either schema."""
    if "per_seed" in data:
        return [(entry["seed"], entry["summary"]) for entry in data["per_seed"]]
    return [(data["scenario"]["seed"], data["summary"])]


def _assert_same_layout(fresh, pinned, path="result"):
    """Same keys in the same order, same list lengths, ``null`` in the
    same places, and numbers equal at relative 1e-9."""
    if isinstance(pinned, dict):
        assert isinstance(fresh, dict), path
        assert list(fresh) == list(pinned), path
        for key, value in pinned.items():
            _assert_same_layout(fresh[key], value, f"{path}.{key}")
    elif isinstance(pinned, list):
        assert isinstance(fresh, list) and len(fresh) == len(pinned), path
        for i, (a, b) in enumerate(zip(fresh, pinned)):
            _assert_same_layout(a, b, f"{path}[{i}]")
    elif isinstance(pinned, (int, float)) and not isinstance(pinned, bool):
        assert type(fresh) is type(pinned), path
        assert fresh == pytest.approx(pinned, rel=1e-9), path
    else:
        assert fresh == pinned, path


@pytest.mark.parametrize("name", sorted(RUN_FLAGS))
def test_load_result_reads_the_committed_file(name):
    path = FIXTURES / name
    data = json.loads(path.read_text())
    result = load_result(path)
    assert result.policy == data["policy"] == "fcfs"
    expected = _seed_summaries(data)
    assert result.seeds == tuple(seed for seed, _ in expected)
    for run, (seed, summary) in zip(result.per_seed, expected):
        assert run.seed == seed
        assert list(run.summary) == list(summary)
        for key, value in summary.items():
            if value is None:
                assert math.isnan(run.summary[key]), key
            else:
                assert run.summary[key] == value, key
    # The file exercises the null -> NaN rule.
    assert any(value is None for _, summary in expected for value in summary.values())


@pytest.mark.parametrize("name", sorted(RUN_FLAGS))
def test_fresh_run_has_the_committed_layout(name, tmp_path):
    fresh = tmp_path / name
    argv = ["run", "smoke", "--horizon", "1200", "--policy", "fcfs"]
    assert main([*argv, *RUN_FLAGS[name], "--json", str(fresh)]) == 0
    _assert_same_layout(
        json.loads(fresh.read_text()), json.loads((FIXTURES / name).read_text())
    )
