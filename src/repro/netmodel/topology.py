"""The zoned network: inter-zone RTTs and where the users are.

The paper prices SLAs purely in queueing response time; edge-cloud
placement systems (Tetris, MORPHOSYS -- see PAPERS.md) show that the
*network position* of an instance matters just as much once demand
originates far from where it is served.  :class:`NetworkSpec` is the
declarative core of that model and the ``[network]`` block of a scenario
spec: named zones with their user populations, and a symmetric
inter-zone RTT matrix in zone-declaration order::

    [network]
    rtt_ms = [[0.0, 20.0], [20.0, 0.0]]

    [[network.zones]]
    name = "edge"
    users = 70.0

    [[network.zones]]
    name = "cloud"
    users = 30.0

Requests are routed to the *nearest serving zone*: with user weight
``w_z`` (the zone's share of the total user population) and serving-zone
set ``S``, the demand-weighted expected network round trip is::

    E[RTT | S] = sum_z  w_z * min_{s in S} rtt(z, s)

which is what :class:`~repro.netmodel.model.NetworkAwareModel` adds to
the queueing response time, and ``in_zone_fraction(S)`` -- the user mass
whose own zone is serving -- is the locality telemetry reported by the
experiment runner.

Both classes are frozen dataclasses over tuples, so instances hash and
compare by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import ConfigurationError

__all__ = ["NetworkSpec", "ZoneSpec"]


@dataclass(frozen=True)
class ZoneSpec:
    """One declared zone: its name and user population.

    ``users`` is any non-negative scale; only the normalized shares
    matter.  A zone may hold users without hosting any node -- a pure
    demand origin, e.g. a last-mile aggregation point.
    """

    name: str
    users: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError("zone name must be a non-empty string")
        if not math.isfinite(self.users) or self.users < 0:
            raise ConfigurationError(
                f"zone {self.name!r}: users must be finite and non-negative"
            )


@dataclass(frozen=True)
class NetworkSpec:
    """Declared zones plus the inter-zone RTTs (ms).

    ``rtt_ms`` is a square symmetric matrix in zone-declaration order
    with a zero diagonal (in-zone traffic is free at this modeling
    granularity).  At least one zone must hold users.
    """

    zones: tuple[ZoneSpec, ...]
    rtt_ms: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        zones = tuple(self.zones)
        rtt = tuple(tuple(float(v) for v in row) for row in self.rtt_ms)
        object.__setattr__(self, "zones", zones)
        object.__setattr__(self, "rtt_ms", rtt)
        if not zones:
            raise ConfigurationError("at least one zone is required")
        names = self.zone_names()
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate zone names in {names}")
        n = len(zones)
        if len(rtt) != n or any(len(row) != n for row in rtt):
            raise ConfigurationError(
                f"rtt_ms must be a {n}x{n} matrix matching the zone list"
            )
        for i in range(n):
            if rtt[i][i] != 0.0:
                raise ConfigurationError(
                    f"rtt_ms diagonal must be zero (zone {names[i]!r})"
                )
            for j in range(n):
                v = rtt[i][j]
                if not math.isfinite(v) or v < 0:
                    raise ConfigurationError(
                        f"rtt_ms[{names[i]!r}][{names[j]!r}] must be finite "
                        f"and non-negative, got {v}"
                    )
                if rtt[i][j] != rtt[j][i]:
                    raise ConfigurationError(
                        f"rtt_ms must be symmetric: "
                        f"[{names[i]!r}][{names[j]!r}] = {rtt[i][j]} but "
                        f"[{names[j]!r}][{names[i]!r}] = {rtt[j][i]}"
                    )
        total = sum(zone.users for zone in zones)
        if total <= 0:
            raise ConfigurationError("at least one zone must hold users")
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})
        object.__setattr__(
            self, "_weights", tuple(zone.users / total for zone in zones)
        )

    # -- lookups --------------------------------------------------------
    def zone_names(self) -> tuple[str, ...]:
        """Zone names in declaration order (the matrix rows)."""
        return tuple(zone.name for zone in self.zones)

    def _zone_index(self, zone: str) -> int:
        index: Mapping[str, int] = self._index  # type: ignore[attr-defined]
        try:
            return index[zone]
        except KeyError:
            raise ConfigurationError(
                f"unknown zone {zone!r} (declared: {', '.join(self.zone_names())})"
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
        names = self.zone_names()
        serving = sorted({self._zone_index(z) for z in serving_zones})
        if serving:
            base = self.expected_rtt_ms(names[i] for i in serving)
        else:
            base = max(self.expected_rtt_ms((zone,)) for zone in names)
        gains: dict[str, float] = {}
        for i, zone in enumerate(names):
            with_zone = {*serving, i}
            cost = self.expected_rtt_ms(names[j] for j in with_zone)
            gains[zone] = base - cost
        return gains
