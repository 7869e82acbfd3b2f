"""Shared value types used across the :mod:`repro` subsystems.

Units
-----
The library uses a single consistent unit system, matching the paper:

* **CPU power** is measured in MHz (the paper's Figure 2 plots MHz).  A
  "cycle" of work is therefore MHz x seconds; a job that needs
  ``36_000 s`` on a ``3_000 MHz`` processor has ``108e6`` MHz·s of work.
* **Memory** is measured in MB.
* **Time** is measured in seconds of simulated time.
"""

from __future__ import annotations

import enum

#: CPU power in MHz.
Mhz = float
#: CPU work in MHz·s ("cycles").
Cycles = float
#: Memory in MB.
Megabytes = float
#: Simulated time in seconds.
Seconds = float


class WorkloadKind(enum.Enum):
    """The two heterogeneous workload types managed by the controller."""

    TRANSACTIONAL = "transactional"
    LONG_RUNNING = "long_running"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
