"""Every golden run still decides what ``outcomes.json`` pins.

A failure names the run, each discrete field that moved and the largest
float delta.  If the change is meant to alter outcomes, regenerate with
``PYTHONPATH=src python tests/golden/regen.py`` and say why.
"""

import pytest

from .regen import REGEN_COMMAND, RUNS, compare, explain, fingerprint, load_golden


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_file_pins_every_run(golden):
    assert sorted(golden) == sorted(run.run_id for run in RUNS), (
        f"the golden runs changed; regenerate with: {REGEN_COMMAND}"
    )


@pytest.mark.parametrize("run", [pytest.param(run, id=run.run_id) for run in RUNS])
def test_outcome_matches_golden(run, golden):
    diffs = compare(golden[run.run_id], fingerprint(run.execute()))
    assert not diffs, f"{explain(run.run_id, diffs)}\n(regenerate: {REGEN_COMMAND})"
