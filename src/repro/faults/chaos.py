"""Chaos-monkey policy wrapper.

Node-level faults alone never make a healthy controller misbehave, so the
graceful-degradation path of
:class:`repro.core.resilient.ResilientController` needs its own fault
source: :class:`ChaosPolicy` wraps any placement policy and raises a
seeded :class:`InjectedFaultError` from ``decide()`` with a fixed
per-cycle probability.  The injection stream is deterministic in the
scenario seed (one uniform draw per cycle), so chaos runs stay
seed-reproducible and replications aggregate over injection patterns.

Registered as the ``"chaos-utility"`` policy (chaos around the default
utility controller) in :mod:`repro.baselines.registry`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import ConfigurationError, ReproError
from ..sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import PlacementPolicy


class InjectedFaultError(ReproError):
    """A deliberate failure injected by :class:`ChaosPolicy`."""


class ChaosPolicy:
    """Wrap ``inner`` and fail ``decide()`` with probability ``error_rate``.

    The rest of the policy contract (``observe_app``, ``close``) passes
    straight to the wrapped policy.
    """

    def __init__(
        self,
        inner: PlacementPolicy,
        *,
        error_rate: float = 0.2,
        seed: int = 0,
        stream: str = "chaos-policy",
    ) -> None:
        if not 0 <= error_rate <= 1:
            raise ConfigurationError("error_rate must be in [0, 1]")
        self.inner = inner
        self.error_rate = error_rate
        self.injected = 0
        self._rng = RngRegistry(seed).stream(stream)

    def observe_app(
        self, app_id: str, *, load: float, service_cycles: Optional[float] = None
    ) -> None:
        self.inner.observe_app(app_id, load=load, service_cycles=service_cycles)

    def decide(self, t, **kwargs):
        if float(self._rng.random()) < self.error_rate:
            self.injected += 1
            raise InjectedFaultError(
                f"chaos: injected decide() failure #{self.injected} at t={t:g}"
            )
        return self.inner.decide(t, **kwargs)

    def close(self) -> None:
        self.inner.close()
