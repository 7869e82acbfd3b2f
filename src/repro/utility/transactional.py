"""Transactional-workload utility.

Maps a web application's mean response time against its SLA goal into the
paper's goal-relative utility, and -- composed with a performance model --
gives the *utility-versus-allocation* curve the arbiter bisects on.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..perf.queueing import TransactionalPerfModel
from ..types import Mhz, Seconds
from .base import LinearUtility, UtilityFunction, relative_slack


class TransactionalUtility:
    """Utility of a web application with a response-time goal.

    Parameters
    ----------
    rt_goal:
        Mean response-time SLA goal in seconds.
    shape:
        Utility shape applied to the relative slack ``(goal - RT)/goal``;
        defaults to the paper's linear (identity) utility.
    """

    __slots__ = ("rt_goal", "shape")

    def __init__(self, rt_goal: Seconds, shape: UtilityFunction | None = None) -> None:
        if rt_goal <= 0:
            raise ConfigurationError("rt_goal must be positive")
        self.rt_goal = rt_goal
        self.shape = shape if shape is not None else LinearUtility()

    def of_response_time(self, response_time: Seconds) -> float:
        """Utility achieved at a measured (or predicted) response time."""
        if response_time < 0:
            raise ConfigurationError("response_time must be non-negative")
        return self.shape(relative_slack(self.rt_goal, response_time))

    def of_allocation(self, model: TransactionalPerfModel, allocation: Mhz) -> float:
        """Predicted utility when the application is granted ``allocation``."""
        return self.of_response_time(model.response_time(allocation))

    def allocation_for_utility(
        self, model: TransactionalPerfModel, utility: float
    ) -> Mhz:
        """Smallest allocation predicted to achieve ``utility``.

        Only meaningful for utilities below the model's plateau; utilities
        at or above the plateau return the max-utility demand.

        Requires the linear shape (the default), whose inverse is trivial;
        other shapes raise :class:`ConfigurationError`.
        """
        if not self.invertible:
            raise ConfigurationError(
                "allocation_for_utility requires the linear utility shape"
            )
        ceiling = self.max_utility(model)
        if utility >= ceiling:
            return model.max_utility_demand()
        # slack = utility  =>  RT = goal * (1 - utility)
        rt_target = self.rt_goal * (1.0 - max(utility, self.shape.floor))
        return model.allocation_for_rt(rt_target)

    @property
    def invertible(self) -> bool:
        """Whether :meth:`allocation_for_utility` can invert the shape
        (the linear shape only)."""
        return isinstance(self.shape, LinearUtility)

    def max_utility(self, model: TransactionalPerfModel) -> float:
        """Utility plateau: the value at the response-time floor."""
        return self.of_response_time(model.min_response_time)
