"""Arrival-intensity profiles.

A profile is a deterministic function of simulated time giving the
instantaneous arrival rate (requests/s for transactional workloads,
jobs/s for batch submission).  Profiles expose an upper bound over any
window (:meth:`IntensityProfile.max_rate`) so non-homogeneous Poisson
arrivals can be generated by thinning.

The paper's evaluation uses a *constant* transactional intensity; step,
diurnal and noisy profiles support the extended experiments and examples.

Each profile is a frozen dataclass whose fields are its spec table: the
spec codec (:mod:`repro.api.spec`) reads and writes it directly, tagged
by the class's ``kind``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Protocol, Union

import numpy as np

from ..errors import ConfigurationError
from ..types import Seconds


class IntensityProfile(Protocol):
    """Deterministic intensity profile interface."""

    def rate(self, t: Seconds) -> float:
        """Instantaneous rate at time ``t`` (non-negative)."""
        ...

    def max_rate(self, start: Seconds, end: Seconds) -> float:
        """An upper bound of :meth:`rate` over ``[start, end]``."""
        ...


@dataclass(frozen=True)
class ConstantProfile:
    """Time-invariant rate; the paper's transactional workload shape."""

    kind: ClassVar[str] = "constant"
    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ConfigurationError("rate must be non-negative")
        object.__setattr__(self, "value", float(self.value))

    def rate(self, t: Seconds) -> float:
        return self.value

    def max_rate(self, start: Seconds, end: Seconds) -> float:
        return self.value


@dataclass(frozen=True)
class StepProfile:
    """Piecewise-constant rate defined by breakpoints.

    ``steps`` holds ``(start_time, rate)`` pairs with strictly increasing
    start times; the first must start at or before 0.  Each rate holds
    until the next breakpoint.
    """

    kind: ClassVar[str] = "step"
    steps: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        steps = tuple((float(t), float(r)) for t, r in self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ConfigurationError("StepProfile needs at least one step")
        times = [t for t, _ in steps]
        rates = [r for _, r in steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigurationError("step times must be strictly increasing")
        if times[0] > 0:
            raise ConfigurationError("first step must start at or before t=0")
        if any(r < 0 for r in rates):
            raise ConfigurationError("rates must be non-negative")
        object.__setattr__(self, "_times", np.asarray(times, dtype=float))
        object.__setattr__(self, "_rates", np.asarray(rates, dtype=float))

    def rate(self, t: Seconds) -> float:
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        return float(self._rates[max(idx, 0)])

    def max_rate(self, start: Seconds, end: Seconds) -> float:
        lo = max(int(np.searchsorted(self._times, start, side="right")) - 1, 0)
        hi = int(np.searchsorted(self._times, end, side="right"))
        return float(self._rates[lo:hi].max())


@dataclass(frozen=True)
class DiurnalProfile:
    """Sinusoidal day/night pattern: ``base + amplitude * sin(...)``.

    The rate is clamped at zero when the trough would be negative.
    """

    kind: ClassVar[str] = "diurnal"
    base: float
    amplitude: float
    period: Seconds = 86_400.0
    phase: Seconds = 0.0

    def __post_init__(self) -> None:
        if self.base < 0 or self.amplitude < 0:
            raise ConfigurationError("base and amplitude must be non-negative")
        if self.period <= 0:
            raise ConfigurationError("period must be positive")

    def rate(self, t: Seconds) -> float:
        value = self.base + self.amplitude * math.sin(
            2 * math.pi * (t - self.phase) / self.period
        )
        return max(value, 0.0)

    def max_rate(self, start: Seconds, end: Seconds) -> float:
        if end - start >= self.period:
            return self.base + self.amplitude
        # Either the peak lies inside the window, or the max is at an edge.
        peak_phase = self.period / 4 + self.phase
        k = math.ceil((start - peak_phase) / self.period)
        peak_time = peak_phase + k * self.period
        candidates = [self.rate(start), self.rate(end)]
        if start <= peak_time <= end:
            candidates.append(self.base + self.amplitude)
        return max(candidates)


@dataclass(frozen=True)
class NoisyProfile:
    """Multiplicative lognormal noise over a base profile.

    The noise factor is piecewise-constant over windows of
    ``interval`` seconds and is *deterministic per window index* (derived
    from ``seed``), so evaluation order does not affect the trace and
    repeated queries agree.
    """

    kind: ClassVar[str] = "noisy"
    #: Cap on the noise factor so :meth:`max_rate` stays a valid bound.
    MAX_FACTOR: ClassVar[float] = 4.0
    base: Profile
    rel_std: float
    interval: Seconds = 600.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rel_std < 0:
            raise ConfigurationError("rel_std must be non-negative")
        if self.interval <= 0:
            raise ConfigurationError("interval must be positive")
        sigma = math.sqrt(math.log(1 + self.rel_std**2))
        object.__setattr__(self, "_sigma", sigma)
        # E[lognormal(mu, sigma)] = 1 for mu = -sigma^2/2.
        object.__setattr__(self, "_mu", -sigma**2 / 2)
        object.__setattr__(self, "_cache", {})

    def _factor(self, window: int) -> float:
        factor = self._cache.get(window)
        if factor is None:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=int(self.seed), spawn_key=(window,))
            )
            factor = float(
                min(rng.lognormal(mean=self._mu, sigma=self._sigma), self.MAX_FACTOR)
            )
            self._cache[window] = factor
        return factor

    def rate(self, t: Seconds) -> float:
        return self.base.rate(t) * self._factor(int(t // self.interval))

    def max_rate(self, start: Seconds, end: Seconds) -> float:
        return self.base.max_rate(start, end) * self.MAX_FACTOR


#: Any intensity profile a scenario spec can declare (tagged by ``kind``).
Profile = Union[ConstantProfile, StepProfile, DiurnalProfile, NoisyProfile]
