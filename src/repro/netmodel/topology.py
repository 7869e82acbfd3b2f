"""Zone topology: inter-zone RTTs and where the users are.

The paper prices SLAs purely in queueing response time; edge-cloud
placement systems (Tetris, MORPHOSYS -- see PAPERS.md) show that the
*network position* of an instance matters just as much once demand
originates far from where it is served.  :class:`ZoneTopology` is the
declarative core of that model: a set of named zones, a symmetric
inter-zone RTT matrix, and a per-zone user population.

Requests are routed to the *nearest serving zone*: with user weight
``w_z`` (the zone's share of the total user population) and serving-zone
set ``S``, the demand-weighted expected network round trip is::

    E[RTT | S] = sum_z  w_z * min_{s in S} rtt(z, s)

which is what :class:`~repro.netmodel.model.NetworkAwareModel` adds to
the queueing response time, and ``in_zone_fraction(S)`` -- the user mass
whose own zone is serving -- is the locality telemetry reported by the
experiment runner.

The class is a frozen dataclass over tuples, so instances hash, compare,
and pickle (the sharded control plane ships them to pool workers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import ConfigurationError

__all__ = ["ZoneTopology"]


@dataclass(frozen=True)
class ZoneTopology:
    """Named zones, symmetric inter-zone RTTs (ms), per-zone users.

    Attributes
    ----------
    zones:
        Unique, non-empty zone names; index order fixes the matrix rows.
    rtt_ms:
        Square symmetric matrix of inter-zone round-trip times in
        milliseconds with a zero diagonal (in-zone traffic is free at
        this modeling granularity).
    users:
        Non-negative per-zone user population (any scale; only the
        normalized shares matter).  At least one zone must hold users.
        Zones may hold users without hosting any node -- a pure demand
        origin, e.g. a last-mile aggregation point.
    """

    zones: tuple[str, ...]
    rtt_ms: tuple[tuple[float, ...], ...]
    users: tuple[float, ...]

    def __post_init__(self) -> None:
        zones = tuple(self.zones)
        rtt = tuple(tuple(float(v) for v in row) for row in self.rtt_ms)
        users = tuple(float(u) for u in self.users)
        object.__setattr__(self, "zones", zones)
        object.__setattr__(self, "rtt_ms", rtt)
        object.__setattr__(self, "users", users)

        if not zones:
            raise ConfigurationError("at least one zone is required")
        if any(not isinstance(z, str) or not z for z in zones):
            raise ConfigurationError(f"zone names must be non-empty strings: {zones}")
        if len(set(zones)) != len(zones):
            raise ConfigurationError(f"duplicate zone names in {zones}")
        n = len(zones)
        if len(rtt) != n or any(len(row) != n for row in rtt):
            raise ConfigurationError(
                f"rtt_ms must be a {n}x{n} matrix matching the zone list"
            )
        for i in range(n):
            if rtt[i][i] != 0.0:
                raise ConfigurationError(
                    f"rtt_ms diagonal must be zero (zone {zones[i]!r})"
                )
            for j in range(n):
                v = rtt[i][j]
                if not math.isfinite(v) or v < 0:
                    raise ConfigurationError(
                        f"rtt_ms[{zones[i]!r}][{zones[j]!r}] must be finite "
                        f"and non-negative, got {v}"
                    )
                if rtt[i][j] != rtt[j][i]:
                    raise ConfigurationError(
                        f"rtt_ms must be symmetric: "
                        f"[{zones[i]!r}][{zones[j]!r}] = {rtt[i][j]} but "
                        f"[{zones[j]!r}][{zones[i]!r}] = {rtt[j][i]}"
                    )
        if len(users) != n:
            raise ConfigurationError("one user population per zone is required")
        if any(not math.isfinite(u) or u < 0 for u in users):
            raise ConfigurationError(
                f"user populations must be finite and non-negative: {users}"
            )
        total = sum(users)
        if total <= 0:
            raise ConfigurationError("at least one zone must hold users")
        object.__setattr__(
            self, "_index", {zone: i for i, zone in enumerate(zones)}
        )
        object.__setattr__(
            self, "_weights", tuple(u / total for u in users)
        )

    # -- lookups --------------------------------------------------------
    def _zone_index(self, zone: str) -> int:
        index: Mapping[str, int] = self._index  # type: ignore[attr-defined]
        try:
            return index[zone]
        except KeyError:
            raise ConfigurationError(
                f"unknown zone {zone!r} (declared: {', '.join(self.zones)})"
            ) from None

    def rtt(self, zone_a: str, zone_b: str) -> float:
        """Round-trip time between two zones in milliseconds."""
        return self.rtt_ms[self._zone_index(zone_a)][self._zone_index(zone_b)]

    def weight(self, zone: str) -> float:
        """The zone's normalized share of the total user population."""
        weights: tuple[float, ...] = self._weights  # type: ignore[attr-defined]
        return weights[self._zone_index(zone)]

    # -- routing model --------------------------------------------------
    def expected_rtt_ms(self, serving_zones: Iterable[str]) -> float:
        """Demand-weighted expected RTT (ms) under nearest-zone routing.

        Every user zone routes to its closest serving zone.  An empty
        serving set yields 0.0: before the first placement there is no
        instance to measure against, and the controller's probe model
        must stay well-defined.
        """
        serving = sorted({self._zone_index(z) for z in serving_zones})
        if not serving:
            return 0.0
        weights: tuple[float, ...] = self._weights  # type: ignore[attr-defined]
        return sum(
            w * min(self.rtt_ms[z][s] for s in serving)
            for z, w in enumerate(weights)
            if w > 0.0
        )

    def expected_rtt_s(self, serving_zones: Iterable[str]) -> float:
        """:meth:`expected_rtt_ms` converted to seconds."""
        return self.expected_rtt_ms(serving_zones) / 1000.0

    def in_zone_fraction(self, serving_zones: Iterable[str]) -> float:
        """User mass served from its own zone (0 for an empty set)."""
        serving = {self._zone_index(z) for z in serving_zones}
        if not serving:
            return 0.0
        weights: tuple[float, ...] = self._weights  # type: ignore[attr-defined]
        return sum(w for z, w in enumerate(weights) if z in serving)

    def placement_gain_ms(self, serving_zones: Iterable[str]) -> dict[str, float]:
        """Marginal expected-RTT reduction (ms) of adding each zone.

        For the current serving set ``S`` this returns, per zone ``z``,
        ``E[RTT | S] - E[RTT | S + {z}]`` -- how much the expected
        network round trip drops if an instance appears in ``z``.  With
        an empty ``S`` the baseline is the *worst* single-zone placement,
        so the gains still rank zones by desirability on the very first
        cycle.  The controller turns this ranking into the solver's
        preferred-node ordering.
        """
        serving = sorted({self._zone_index(z) for z in serving_zones})
        if serving:
            base = self.expected_rtt_ms(self.zones[i] for i in serving)
        else:
            base = max(
                self.expected_rtt_ms((zone,)) for zone in self.zones
            )
        gains: dict[str, float] = {}
        for i, zone in enumerate(self.zones):
            with_zone = {*serving, i}
            cost = self.expected_rtt_ms(self.zones[j] for j in with_zone)
            gains[zone] = base - cost
        return gains
