"""Transactional (web) application model.

A transactional application is a *clustered* workload: it runs one
instance per node on some subset of nodes, behind an ideal load balancer.
Requests arrive following an intensity profile; each request needs an
exponentially distributed amount of CPU work and can consume at most one
processor's worth of MHz while executing (the per-request speed cap).

Its SLA is a mean response-time goal; utility is the goal-relative slack
(:mod:`repro.utility.transactional`).  Performance as a function of the
CPU power allocated to the application comes from the queueing model in
:mod:`repro.perf.queueing`.

Each instance runs in one VM, and an instance is nothing more than its
node's CPU grant: :class:`TransactionalApp` keeps one ``node_id -> MHz``
entry per hosting node, and the placement names that VM
``tx:<app>@<node>`` (:func:`~repro.cluster.placement.instance_vm_id`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from operator import le
from typing import Iterator, Literal, Optional, Sequence

from ..errors import ConfigurationError, LifecycleError
from ..types import Cycles, Megabytes, Mhz, Seconds
from .profiles import IntensityProfile


@dataclass(frozen=True, slots=True)
class TransactionalAppSpec:
    """Immutable description of a clustered web application.

    Attributes
    ----------
    app_id:
        Unique identifier.
    rt_goal:
        SLA mean response-time goal in seconds.
    mean_service_cycles:
        Mean CPU work per request, in MHz·s.
    request_cap_mhz:
        Maximum rate a single request can consume (one processor).
    instance_memory_mb:
        Memory footprint of one application instance (VM).
    min_instances / max_instances:
        Bounds on the number of simultaneously running instances.
    model_kind:
        Which performance model describes the workload: ``"closed"`` --
        the intensity profile gives the number of active *sessions*
        (finite client population, the paper's testbed shape) -- or
        ``"open"`` -- the profile gives the Poisson request *rate*.
    think_time:
        Mean per-session think time (closed model only), seconds.
    """

    app_id: str
    rt_goal: Seconds
    mean_service_cycles: Cycles
    request_cap_mhz: Mhz
    instance_memory_mb: Megabytes
    min_instances: int = 1
    max_instances: int = 10_000
    model_kind: Literal["closed", "open"] = "closed"
    think_time: Seconds = 0.0

    def __post_init__(self) -> None:
        if self.model_kind not in ("closed", "open"):
            raise ConfigurationError(
                f"app {self.app_id}: unknown model_kind {self.model_kind!r}"
            )
        if self.think_time < 0:
            raise ConfigurationError(f"app {self.app_id}: negative think_time")
        if not self.app_id:
            raise ConfigurationError("app_id must be non-empty")
        if self.rt_goal <= 0:
            raise ConfigurationError(f"app {self.app_id}: rt_goal must be positive")
        if self.mean_service_cycles <= 0:
            raise ConfigurationError(
                f"app {self.app_id}: mean_service_cycles must be positive"
            )
        if self.request_cap_mhz <= 0:
            raise ConfigurationError(
                f"app {self.app_id}: request_cap_mhz must be positive"
            )
        if self.instance_memory_mb <= 0:
            raise ConfigurationError(
                f"app {self.app_id}: instance_memory_mb must be positive"
            )
        if self.min_instances < 1:
            raise ConfigurationError(f"app {self.app_id}: min_instances must be >= 1")
        if self.max_instances < self.min_instances:
            raise ConfigurationError(
                f"app {self.app_id}: max_instances < min_instances"
            )

    @property
    def min_response_time(self) -> Seconds:
        """Response-time floor: a lone request running at the speed cap."""
        return self.mean_service_cycles / self.request_cap_mhz

    def build_perf_model(self, load: float, service_cycles: Optional[Cycles] = None):
        """Instantiate the spec's performance model at a given load.

        ``load`` is the active session count for ``model_kind="closed"``
        or the request arrival rate for ``"open"``; ``service_cycles``
        overrides the spec's mean per-request work (used when the
        controller substitutes its *estimated* value).
        """
        from ..perf.queueing import ClosedTransactionalModel, OpenTransactionalModel

        cycles = self.mean_service_cycles if service_cycles is None else service_cycles
        if self.model_kind == "closed":
            return ClosedTransactionalModel(
                num_clients=load,
                think_time=self.think_time,
                mean_service_cycles=cycles,
                request_cap_mhz=self.request_cap_mhz,
            )
        return OpenTransactionalModel(
            arrival_rate=load,
            mean_service_cycles=cycles,
            request_cap_mhz=self.request_cap_mhz,
        )


class TransactionalApp:
    """Runtime state of a clustered web application.

    Tracks the running instances (one VM per hosting node) as each
    node's CPU grant, and delegates the arrival intensity to the
    configured profile.
    """

    def __init__(self, spec: TransactionalAppSpec, profile: IntensityProfile) -> None:
        self.spec = spec
        self.profile = profile
        #: node_id -> CPU grant (MHz), in start order (the order
        #: total_allocation sums in).
        self._instances: dict[str, Mhz] = {}
        #: Instance count when :meth:`instance_changes` was entered.
        self._batch_start: Optional[int] = None

    # ------------------------------------------------------------------
    # Workload intensity
    # ------------------------------------------------------------------
    @property
    def app_id(self) -> str:
        """The spec's application id."""
        return self.spec.app_id

    def arrival_rate(self, t: Seconds) -> float:
        """Offered request rate (requests/s) at time ``t``."""
        return self.profile.rate(t)

    def offered_load(self, t: Seconds) -> Mhz:
        """CPU power needed to keep up with arrivals at ``t`` (rho = 1 point)."""
        return self.arrival_rate(t) * self.spec.mean_service_cycles

    # ------------------------------------------------------------------
    # Instances
    # ------------------------------------------------------------------
    @property
    def instance_nodes(self) -> list[str]:
        """Sorted ids of nodes currently hosting an instance."""
        return sorted(self._instances)

    @property
    def instance_count(self) -> int:
        """Number of running instances."""
        return len(self._instances)

    def start_instance(self, t: Seconds, node_id: str, cpu_mhz: Mhz = 0.0) -> None:
        """Start a new instance on ``node_id`` with a ``cpu_mhz`` grant.

        Raises
        ------
        LifecycleError
            If an instance already runs there, ``max_instances`` would be
            exceeded or the grant is negative or NaN.
        """
        if node_id in self._instances:
            raise LifecycleError(
                f"app {self.app_id}: instance already running on {node_id}"
            )
        if self._batch_start is None:
            self._check_bounds(len(self._instances), len(self._instances) + 1)
        self._instances[node_id] = self._grant(node_id, cpu_mhz)

    def stop_instance(self, node_id: str) -> None:
        """Stop the instance on ``node_id``.

        Raises
        ------
        LifecycleError
            If no instance runs there or stopping would violate
            ``min_instances``.
        """
        if node_id not in self._instances:
            raise LifecycleError(f"app {self.app_id}: no instance on {node_id}")
        if self._batch_start is None:
            self._check_bounds(len(self._instances), len(self._instances) - 1)
        del self._instances[node_id]

    @contextmanager
    def instance_changes(self) -> Iterator[None]:
        """Enact several instance starts and stops as one change.

        Inside the block :meth:`start_instance` and :meth:`stop_instance`
        skip the ``min_instances``/``max_instances`` checks; on leaving
        it, the bounds are checked against the instance set the block
        left.  Moving an app's only instance stops it before its
        replacement starts, which a per-call check would reject.

        Raises
        ------
        LifecycleError
            If the block shrank the instance set below ``min_instances``
            or grew it beyond ``max_instances``.
        """
        self._batch_start = len(self._instances)
        try:
            yield
        finally:
            before, self._batch_start = self._batch_start, None
        self._check_bounds(before, len(self._instances))

    def _check_bounds(self, before: int, after: int) -> None:
        if after < before and after < self.spec.min_instances:
            raise LifecycleError(
                f"app {self.app_id}: stopping would violate min_instances"
            )
        if after > before and after > self.spec.max_instances:
            raise LifecycleError(f"app {self.app_id}: max_instances reached")

    def evacuate_node(self, node_id: str) -> bool:
        """Forcefully drop the instance on a failed node (no minimum check).

        Returns whether the node hosted an instance.
        """
        return self._instances.pop(node_id, None) is not None

    def set_instance_allocation(self, node_id: str, cpu_mhz: Mhz) -> None:
        """Adjust the CPU grant of the instance on ``node_id``."""
        if node_id not in self._instances:
            raise LifecycleError(f"app {self.app_id}: no instance on {node_id}")
        self._instances[node_id] = self._grant(node_id, cpu_mhz)

    def set_instance_allocations(
        self, node_ids: Sequence[str], cpu_mhz: Sequence[Mhz]
    ) -> None:
        """:meth:`set_instance_allocation` for each pair, in one call.

        Every pair is checked first: a failing call raises what the first
        failing :meth:`set_instance_allocation` would, and changes
        nothing.  The instances keep their order, so
        :attr:`total_allocation` keeps its summation order.
        """
        instances = self._instances
        if not (
            all(map(instances.__contains__, node_ids))
            and all(map(le, repeat(0.0), cpu_mhz))  # NaN fails too
        ):
            for node_id, cpu in zip(node_ids, cpu_mhz):
                if node_id not in instances:
                    raise LifecycleError(f"app {self.app_id}: no instance on {node_id}")
                self._grant(node_id, cpu)
        instances.update(zip(node_ids, map(float, cpu_mhz)))

    def _grant(self, node_id: str, cpu_mhz: Mhz) -> Mhz:
        if not cpu_mhz >= 0:  # also rejects NaN
            raise LifecycleError(
                f"app {self.app_id}: CPU grant on {node_id} must be "
                f"non-negative, got {cpu_mhz}"
            )
        return float(cpu_mhz)

    @property
    def total_allocation(self) -> Mhz:
        """Total CPU power currently granted across all instances."""
        return sum(self._instances.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TransactionalApp({self.app_id}, {len(self._instances)} instances, "
            f"{self.total_allocation:.0f} MHz)"
        )
