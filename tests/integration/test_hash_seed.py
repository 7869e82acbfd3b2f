"""Simulated outcomes do not depend on Python's string-hash seed.

Sets and dicts keyed by VM, job and node ids iterate in an order that
``PYTHONHASHSEED`` can change; a decision that followed such an order
would differ from one interpreter to the next while every in-process
determinism test still passed.  ``smoke`` at its full horizon and
``chaos-soak`` at :data:`test_seed_determinism.HORIZON` run in two
interpreters with different hash seeds and must serialize identically
(wall-time fields scrubbed).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
from repro.api import scenario_spec
from tests.integration.test_seed_determinism import HORIZON, scrubbed_result_json

print(scrubbed_result_json(scenario_spec("smoke")))
chaos = scenario_spec("chaos-soak").with_overrides({"horizon": HORIZON})
print(scrubbed_result_json(chaos))
"""


def _start(hash_seed: int) -> subprocess.Popen:
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_outcomes_do_not_depend_on_the_hash_seed():
    runs = [_start(0), _start(4242)]
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
        outputs.append(out)
    assert outputs[0].count("\n") == 2
    assert outputs[0] == outputs[1]
