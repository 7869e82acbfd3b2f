"""End-to-end response time: queueing delay plus network round trip.

:class:`NetworkAwareModel` wraps any
:class:`~repro.perf.queueing.TransactionalPerfModel` and adds a fixed
network delay -- the demand-weighted expected RTT from the user zones to
the app's serving zones (see
:meth:`repro.netmodel.topology.NetworkSpec.expected_rtt_s`) -- so that
everything downstream of the model (utility evaluation, the arbiter's
probe allocations, ``allocation_for_rt`` inversions) prices *total*
latency rather than queueing latency alone.

Semantics of the composition:

* ``response_time`` and ``min_response_time`` shift up by the delay;
  the model stays monotone non-increasing in allocation.
* ``allocation_for_rt(target)`` inverts against ``target - delay``:
  CPU can only buy down the queueing share, so a target inside the
  network delay is infeasible and the inner model raises its usual
  :class:`~repro.errors.ModelError`.
* ``max_utility_demand`` **delegates unchanged**: the demand knee is
  where extra CPU stops improving response time, and no amount of CPU
  reduces the network term.  The latency penalty instead bites through
  lower utility at every allocation -- which is exactly what lets the
  placement objective trade churn against moving instances closer to
  the users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ConfigurationError
from ..perf.queueing import (
    DEFAULT_RT_TOLERANCE,
    TransactionalPerfModel,
)
from ..types import Mhz, Seconds

__all__ = ["NetworkAwareModel"]


@dataclass(frozen=True)
class NetworkAwareModel:
    """A transactional perf model shifted by a fixed network delay (s)."""

    inner: TransactionalPerfModel
    network_delay: Seconds

    def __post_init__(self) -> None:
        delay = float(self.network_delay)
        if not math.isfinite(delay) or delay < 0:
            raise ConfigurationError(
                f"network_delay must be finite and non-negative, got {delay}"
            )
        object.__setattr__(self, "network_delay", delay)

    @property
    def min_response_time(self) -> Seconds:
        return self.inner.min_response_time + self.network_delay

    @property
    def float_monotone(self) -> bool:
        # Adding a constant delay keeps a monotone response time monotone.
        return self.inner.float_monotone

    def response_time(self, allocation: Mhz) -> Seconds:
        return self.inner.response_time(allocation) + self.network_delay

    def throughput(self, allocation: Mhz) -> float:
        return self.inner.throughput(allocation)

    def utilization(self, allocation: Mhz) -> float:
        return self.inner.utilization(allocation)

    def allocation_for_rt(self, rt_target: Seconds) -> Mhz:
        # The inner model raises ModelError when the queueing share of
        # the target dips below its floor, with its own edge semantics
        # (closed admits the exact floor, open does not) -- delegate so
        # the wrapped model keeps them.
        return self.inner.allocation_for_rt(rt_target - self.network_delay)

    def max_utility_demand(
        self, rt_tolerance: float = DEFAULT_RT_TOLERANCE
    ) -> Mhz:
        return self.inner.max_utility_demand(rt_tolerance)
