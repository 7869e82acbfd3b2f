"""Transactional performance models.

Predicts the mean response time of a clustered web application as a
function of the CPU power allocated to it.  Two models are provided behind
one interface:

* :class:`OpenTransactionalModel` -- open (Poisson) arrivals served by an
  M/M/m station, where ``m = allocation / request_cap`` is the number of
  processor-equivalents granted to the application (continuous ``m``
  via the Gamma-function extension of Erlang's formulas).
* :class:`ClosedTransactionalModel` -- a closed interactive population of
  ``num_clients`` sessions with exponential think time, served by a
  processor-sharing station with a per-request speed cap.  This matches
  load-generator-driven testbeds like the paper's: when the application is
  CPU-squeezed, throughput degrades and response time grows *hyperbolically*
  (bounded), instead of diverging as in the open model.

Both models are strictly monotone (response time falls as allocation
grows), which the arbiter exploits; both expose the **max-utility demand**
-- the smallest allocation at which response time is within a tolerance of
its floor, i.e. the point past which extra CPU no longer buys utility
("the transactional application gets as much CPU power as it can consume").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from scipy import special

from ..errors import ConfigurationError, ModelError
from ..types import Cycles, Mhz, Seconds

#: Default relative slack over the response-time floor used to define the
#: max-utility demand (avoids asking for the knife-edge knee allocation).
DEFAULT_RT_TOLERANCE = 0.05


def erlang_b(m: float, a: float) -> float:
    """Erlang-B blocking probability with a *continuous* number of servers.

    Uses the Gamma-function extension
    ``B(m, a) = a^m e^{-a} / Gamma(m+1, a)`` where ``Gamma(m+1, a)`` is the
    upper incomplete gamma function; for integer ``m`` this reduces to the
    classical formula.  Evaluated in log space for numerical range.

    Parameters
    ----------
    m:
        Number of servers (> 0, not necessarily integer).
    a:
        Offered load in Erlangs (>= 0).
    """
    if m <= 0:
        raise ModelError(f"erlang_b: m must be positive, got {m}")
    if a < 0:
        raise ModelError(f"erlang_b: offered load must be non-negative, got {a}")
    if a == 0:
        return 0.0
    # Regularized upper incomplete gamma Q(m+1, a) = Gamma(m+1, a)/Gamma(m+1).
    q = special.gammaincc(m + 1.0, a)
    if q <= 0.0:
        # a overwhelmingly exceeds m: every arrival is blocked.
        return 1.0
    log_num = m * math.log(a) - a - special.gammaln(m + 1.0)
    return float(min(math.exp(log_num) / q, 1.0))


def erlang_c(m: float, a: float) -> float:
    """Erlang-C waiting probability for an M/M/m queue (continuous ``m``).

    Requires a stable queue (``a < m``); derived from :func:`erlang_b` via
    ``C = m B / (m - a (1 - B))``.
    """
    if a >= m:
        raise ModelError(f"erlang_c: unstable queue (a={a} >= m={m})")
    b = erlang_b(m, a)
    denom = m - a * (1.0 - b)
    return float(min(max(m * b / denom, 0.0), 1.0))


class TransactionalPerfModel(Protocol):
    """Response-time-versus-allocation model of one web application."""

    def response_time(self, allocation: Mhz) -> Seconds:
        """Predicted mean response time at the given total allocation."""
        ...

    def throughput(self, allocation: Mhz) -> float:
        """Request completion rate (req/s) sustained at the allocation."""
        ...

    def utilization(self, allocation: Mhz) -> float:
        """Fraction of the allocation consumed by request execution."""
        ...

    def allocation_for_rt(self, rt_target: Seconds) -> Mhz:
        """Smallest allocation whose predicted response time meets the target."""
        ...

    def max_utility_demand(self, rt_tolerance: float = DEFAULT_RT_TOLERANCE) -> Mhz:
        """Allocation past which utility is flat (RT within tol of floor)."""
        ...

    @property
    def min_response_time(self) -> Seconds:
        """Response-time floor (single request at the speed cap)."""
        ...

    @property
    def float_monotone(self) -> bool:
        """Whether :meth:`response_time` is non-increasing in the
        allocation *as computed* in floating point, not only in exact
        arithmetic, and :meth:`allocation_for_rt` is closed-form -- what
        lets the arbiter skip probes whose outcome an earlier probe
        implies (:class:`~repro.core.arbiter.BisectionArbiter`)."""
        ...


@dataclass(frozen=True)
class OpenTransactionalModel:
    """Open-arrival M/M/m model.

    Parameters
    ----------
    arrival_rate:
        Offered request rate λ in requests/s.
    mean_service_cycles:
        Mean per-request CPU work s̄ in MHz·s.
    request_cap_mhz:
        Maximum MHz one request can consume (one processor).
    """

    arrival_rate: float
    mean_service_cycles: Cycles
    request_cap_mhz: Mhz

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ConfigurationError("arrival_rate must be non-negative")
        if self.mean_service_cycles <= 0:
            raise ConfigurationError("mean_service_cycles must be positive")
        if self.request_cap_mhz <= 0:
            raise ConfigurationError("request_cap_mhz must be positive")

    @property
    def min_response_time(self) -> Seconds:
        return self.mean_service_cycles / self.request_cap_mhz

    @property
    def float_monotone(self) -> bool:
        # Erlang C is monotone in exact arithmetic; its rounded value,
        # through the incomplete gamma function, is not provably so.
        return False

    @property
    def offered_load_mhz(self) -> Mhz:
        """CPU power consumed by arrivals: λ·s̄ (the stability threshold)."""
        return self.arrival_rate * self.mean_service_cycles

    def response_time(self, allocation: Mhz) -> Seconds:
        if allocation < 0:
            raise ModelError("allocation must be non-negative")
        if self.arrival_rate == 0:
            return self.min_response_time
        if allocation <= self.offered_load_mhz:
            return math.inf
        m = allocation / self.request_cap_mhz
        mu = self.request_cap_mhz / self.mean_service_cycles  # per-server rate
        a = self.arrival_rate / mu  # offered load in Erlangs
        wait = erlang_c(m, a) / (m * mu - self.arrival_rate)
        return self.min_response_time + wait

    def throughput(self, allocation: Mhz) -> float:
        # An open model is only meaningful when stable; when saturated the
        # completion rate is capacity-bound.
        if allocation >= self.offered_load_mhz:
            return self.arrival_rate
        return allocation / self.mean_service_cycles

    def utilization(self, allocation: Mhz) -> float:
        if allocation <= 0:
            return 1.0 if self.arrival_rate > 0 else 0.0
        return min(self.offered_load_mhz / allocation, 1.0)

    def allocation_for_rt(self, rt_target: Seconds) -> Mhz:
        if rt_target <= self.min_response_time:
            raise ModelError(
                f"target {rt_target} is below the response-time floor "
                f"{self.min_response_time}"
            )
        if self.arrival_rate == 0:
            return 0.0
        lo = self.offered_load_mhz  # RT = inf
        hi = max(self.offered_load_mhz * 2.0, self.request_cap_mhz)
        while self.response_time(hi) > rt_target:
            hi *= 2.0
            if hi > 1e15:  # pragma: no cover - defensive
                raise ModelError("allocation_for_rt failed to bracket the target")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.response_time(mid) > rt_target:
                lo = mid
            else:
                hi = mid
        return hi

    def max_utility_demand(self, rt_tolerance: float = DEFAULT_RT_TOLERANCE) -> Mhz:
        if rt_tolerance <= 0:
            raise ConfigurationError("rt_tolerance must be positive")
        if self.arrival_rate == 0:
            return 0.0
        return self.allocation_for_rt(self.min_response_time * (1.0 + rt_tolerance))


@dataclass(frozen=True)
class ClosedTransactionalModel:
    """Closed interactive-population model (fluid machine-repairman).

    ``num_clients`` sessions alternate between thinking (mean
    ``think_time`` s) and issuing one request (mean ``mean_service_cycles``
    MHz·s, at most ``request_cap_mhz`` fast).  With total allocation ``A``
    the fluid fixed point gives the classic asymptotic interactive law::

        RT(A) = max(R0,  s̄·N/A − Z)        R0 = s̄/cap
        X(A)  = N / (Z + RT(A))

    which is bounded for every positive allocation -- a saturated web
    application slows down rather than diverging, because the finite client
    population throttles arrivals.
    """

    num_clients: float
    think_time: Seconds
    mean_service_cycles: Cycles
    request_cap_mhz: Mhz

    def __post_init__(self) -> None:
        if self.num_clients < 0:
            raise ConfigurationError("num_clients must be non-negative")
        if self.think_time < 0:
            raise ConfigurationError("think_time must be non-negative")
        if self.mean_service_cycles <= 0:
            raise ConfigurationError("mean_service_cycles must be positive")
        if self.request_cap_mhz <= 0:
            raise ConfigurationError("request_cap_mhz must be positive")

    @property
    def min_response_time(self) -> Seconds:
        return self.mean_service_cycles / self.request_cap_mhz

    @property
    def float_monotone(self) -> bool:
        # One division by the allocation, a subtraction and a ``max``:
        # each is monotone after rounding.
        return True

    @property
    def saturation_demand(self) -> Mhz:
        """Allocation at the knee: every request runs at the speed cap."""
        return (
            self.mean_service_cycles
            * self.num_clients
            / (self.think_time + self.min_response_time)
        )

    def response_time(self, allocation: Mhz) -> Seconds:
        if allocation < 0:
            raise ModelError("allocation must be non-negative")
        if self.num_clients == 0:
            return self.min_response_time
        if allocation == 0:
            return math.inf
        congested = self.mean_service_cycles * self.num_clients / allocation - self.think_time
        return max(self.min_response_time, congested)

    def throughput(self, allocation: Mhz) -> float:
        if self.num_clients == 0:
            return 0.0
        rt = self.response_time(allocation)
        if math.isinf(rt):
            return 0.0
        return self.num_clients / (self.think_time + rt)

    def utilization(self, allocation: Mhz) -> float:
        if allocation <= 0:
            return 1.0 if self.num_clients > 0 else 0.0
        return min(self.throughput(allocation) * self.mean_service_cycles / allocation, 1.0)

    def concurrency(self, allocation: Mhz) -> float:
        """Mean number of requests in service (Little's law)."""
        rt = self.response_time(allocation)
        if math.isinf(rt):
            return float(self.num_clients)
        return self.throughput(allocation) * rt

    def allocation_for_rt(self, rt_target: Seconds) -> Mhz:
        if rt_target < self.min_response_time:
            raise ModelError(
                f"target {rt_target} is below the response-time floor "
                f"{self.min_response_time}"
            )
        if self.num_clients == 0:
            return 0.0
        return (
            self.mean_service_cycles
            * self.num_clients
            / (self.think_time + rt_target)
        )

    def max_utility_demand(self, rt_tolerance: float = DEFAULT_RT_TOLERANCE) -> Mhz:
        if rt_tolerance <= 0:
            raise ConfigurationError("rt_tolerance must be positive")
        if self.num_clients == 0:
            return 0.0
        return self.allocation_for_rt(self.min_response_time * (1.0 + rt_tolerance))
