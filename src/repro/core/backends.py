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
:class:`~repro.core.placement_solver.PlacementSolution`.
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

_BACKENDS: dict[str, BackendFactory] = {
    "greedy": PlacementSolver,
    "milp": MilpPlacementSolver,
}


def get_backend(name: str) -> BackendFactory:
    """The factory registered under ``name``.

    Raises :class:`ConfigurationError` listing the registered names when
    ``name`` is unknown.
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise ConfigurationError(
            f"unknown solver backend {name!r} (registered: {known})"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered backends."""
    return tuple(sorted(_BACKENDS))


def make_solver(config: SolverConfig | None = None) -> SolverBackend:
    """Instantiate the solver selected by ``config.backend``."""
    config = config or SolverConfig()
    return get_backend(config.backend)(config)
