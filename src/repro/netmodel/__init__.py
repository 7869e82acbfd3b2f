"""Latency-aware edge-cloud network model.

Makes network position a first-class input to the control loop:

* :class:`NetworkSpec` / :class:`ZoneSpec` -- the ``[network]`` block
  of a scenario spec: named zones with their user populations and a
  symmetric inter-zone RTT matrix, with nearest-serving-zone routing
  (:mod:`repro.netmodel.topology`);
* :class:`NetworkAwareModel` -- end-to-end response time composing the
  queueing models with the placement's expected network RTT
  (:mod:`repro.netmodel.model`);
* :class:`NetworkContext` -- the network bound to a concrete cluster,
  as consumed by the controller (:mod:`repro.netmodel.context`).

Scenarios without a ``[network]`` block are untouched: the subsystem is
strictly additive, and ``ControllerConfig.latency_weight = 0`` keeps
the control loop bit-identical to the latency-blind baseline even when
a network is present (only telemetry is recorded).
"""

from .context import NetworkContext
from .model import NetworkAwareModel
from .topology import NetworkSpec, ZoneSpec

__all__ = [
    "NetworkAwareModel",
    "NetworkContext",
    "NetworkSpec",
    "ZoneSpec",
]
