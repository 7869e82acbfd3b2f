"""Placement-solver backend registry.

The controller (and every baseline built on it) asks this module for a
solver instead of hard-coding one, so alternative placement
formulations -- the paper's greedy incremental heuristic and the
optimal MILP oracle -- are interchangeable behind
``SolverConfig.backend``:

    >>> from repro.config import SolverConfig
    >>> from repro.core.backends import make_solver
    >>> make_solver(SolverConfig(backend="milp"))  # doctest: +ELLIPSIS
    <repro.core.milp_solver.MilpPlacementSolver object at ...>

Every backend is a callable ``factory(config) -> solver`` whose product
implements the :class:`SolverBackend` protocol: a ``solve(nodes, apps,
jobs, lr_target=None)`` method returning a
:class:`~repro.core.placement_solver.PlacementSolution`.  Third-party
backends register themselves via :func:`register_backend` before the
controller is constructed.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence

from ..cluster.node import NodeSpec
from ..config import SolverConfig
from ..errors import ConfigurationError
from ..types import Mhz
from .job_scheduler import AppRequest, JobRequest
from .milp_solver import MilpPlacementSolver
from .placement_solver import PlacementSolution, PlacementSolver


class SolverBackend(Protocol):
    """What the controller requires of a placement solver."""

    def solve(
        self,
        nodes: Sequence[NodeSpec],
        apps: Sequence[AppRequest],
        jobs: Sequence[JobRequest],
        lr_target: Optional[Mhz] = None,
    ) -> PlacementSolution:
        """Compute a feasible placement for one control cycle."""
        ...


BackendFactory = Callable[[SolverConfig], SolverBackend]

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(
    name: str, factory: BackendFactory, *, overwrite: bool = False
) -> None:
    """Register ``factory`` under ``name``.

    Raises :class:`ConfigurationError` when ``name`` is empty or already
    taken (unless ``overwrite=True``, which lets tests and downstream
    packages shadow a built-in).
    """
    if not name:
        raise ConfigurationError("backend name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def get_backend(name: str) -> BackendFactory:
    """The factory registered under ``name``.

    Raises :class:`ConfigurationError` listing the registered names when
    ``name`` is unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ConfigurationError(
            f"unknown solver backend {name!r} (registered: {known})"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered backends."""
    return tuple(sorted(_REGISTRY))


def make_solver(config: SolverConfig | None = None) -> SolverBackend:
    """Instantiate the solver selected by ``config.backend``."""
    config = config or SolverConfig()
    return get_backend(config.backend)(config)


register_backend("greedy", PlacementSolver)
register_backend("milp", MilpPlacementSolver)
