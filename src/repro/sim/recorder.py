"""Time-series recording for experiments.

A :class:`Series` is an append-only sequence of ``(time, value)`` samples
interpreted as a *step function*: the value recorded at ``t`` holds until
the next sample.  That matches how the controller works -- allocations and
utilities are piecewise-constant between control cycles -- and makes
resampling and time-averaging exact rather than approximate.

:class:`Recorder` is a named collection of series plus scalar counters.

Recorders serialize through :meth:`Recorder.to_dict` using the stable
``repro.recorder/v1`` schema::

    {
      "schema": "repro.recorder/v1",
      "series": {"<name>": {"times": [...], "values": [...]}, ...},
      "counters": {"<name>": <float>, ...}
    }

Times and values are plain JSON numbers; strict-JSON producers (such as
:meth:`ExperimentResult.to_json`) serialize non-finite samples as
``null``.  Saved results are read back for their summaries only
(:func:`~repro.experiments.replication.load_result`), not the recorder.

Control-plane telemetry naming (additive ``repro.recorder/v1`` fields)
----------------------------------------------------------------------
Each control cycle the runner records the policy's
:class:`~repro.core.controller.ControlDiagnostics` (``diag`` below);
each name maps to the field it is recorded from.  Runs driven by the
incremental control plane (``diag.telemetry`` set) record:

* ``stage_ms:<stage>`` series -- ``telemetry.stage_ms``: decide()
  wall-time per stage (``demand`` / ``arbiter`` / ``equalize`` /
  ``requests`` / ``solver`` / ``planner`` / ``total``), milliseconds;
* ``cycle_warm`` series and ``warm_cycles`` / ``cold_cycles`` counters
  -- ``telemetry.mode``: whether the previous cycle's equalized level
  seeded the cycle's first solve (every cycle after the controller's
  first completed one, unless ``warm_start`` is off);
* ``eq_evals`` / ``eq_cache_hits`` series and ``eq_evals_total`` /
  ``eq_cache_hits_total`` counters -- ``telemetry.eq_evals`` /
  ``telemetry.eq_cache_hits``: vectorized passes over the population
  (consumed-curve evaluations and level-predictor steps) / evaluations
  served by the equalizer's shared memo;
* ``eq_seed_hits_total`` / ``eq_seed_misses_total`` counters --
  ``telemetry.seed_hits`` / ``telemetry.seed_misses``: equalizations
  whose predicted level verified / fell back to the cold bracket.

Sharded runs (``ControllerConfig.shards > 1``; ``diag.shard_telemetry``
non-empty) additionally record:

* ``shard_ms:<shard>`` series -- the ``total`` of
  ``shard_telemetry[shard].stage_ms``: each shard's own decide() wall
  time (milliseconds; the shard index is the 0-based shard a node
  joins on first sight, see
  :func:`repro.core.shard_arbiter.least_populated_shard`);
* ``shard_imbalance`` series -- ``diag.shard_imbalance``: spread
  (max - min) of the shards' local equalized utility levels at their
  budgets, the quantity cross-shard arrival routing drives down;
* The merged ``stage_ms:<stage>`` series sums each stage across shards
  (aggregate work); ``stage_ms:total`` is the observed wall time of the
  whole sharded decide and ``stage_ms:overhead`` its excess over the
  summed shard totals (partition/route/merge cost).

Fault injection and graceful degradation additionally record:

* ``brownout_fraction`` series -- fraction of active nominal CPU
  currently shed by capacity brownouts, sampled every control cycle
  (0.0 while no brownout is active);
* ``node_failures_series`` series -- cumulative node-failure count,
  sampled at each failure instant (simultaneous zone-outage failures
  collapse into one sample; the times drive the ``time_to_recover_mean``
  summary metric);
* counters ``node_failures`` / ``node_brownouts`` -- injected fault
  events;
* ``degraded_cycles`` counter -- ``diag.degraded``: control cycles that
  fell back to the last-known-good placement;
* ``fallback:<reason>`` counters -- ``diag.fallback_reason``, one per
  degradation cause (``fallback:exception:<ExceptionType>``,
  ``fallback:infeasible``, ``fallback:deadline``,
  ``fallback:model-error``); ``diag.fallback_detail`` carries the
  violation or exception text behind it;
* ``decide_overruns`` counter -- ``diag.deadline_overrun``: cycles that
  exceeded a configured ``decide_budget_ms``, including those a strict
  budget degraded (wall-clock, hence nondeterministic -- like the
  ``stage_ms:*`` series).

Network-model runs (scenarios declaring a ``[network]`` zone topology,
see :mod:`repro.netmodel`) additionally record, per control cycle:

* ``rt_network:<app>`` series -- the app's demand-weighted expected
  network RTT (seconds) given its current serving zones; the existing
  ``tx_rt:<app>`` series stays *queueing-only* by contract, so the
  network leg is always a separate, new series;
* ``rt_total:<app>`` series -- end-to-end response time, the noisy
  queueing ``tx_rt:<app>`` sample plus ``rt_network:<app>``;
* ``rt_network_mean`` series -- mean of ``rt_network:<app>`` across
  apps;
* ``in_zone_fraction`` series -- user mass currently served from its
  own zone (mean across apps);
* ``latency_sla_attainment`` series -- fraction of apps whose
  end-to-end response time met their rt goal this cycle.

Latency-blind scenarios record none of these (absent series, not NaN
samples), keeping their exports byte-identical to pre-network runs.

Exact-oracle runs (the ``ControllerConfig.exact_oracle`` knob)
additionally record, on the cycles the oracle sampled (the fields are
NaN on the others):

* ``optimality_gap`` series -- ``diag.optimality_gap``: relative
  shortfall of the cycle's placement against the exact optimum of the
  same instance, in [0, 1] (0 = the production solver matched the
  oracle);
* ``exact_ms`` series -- ``diag.exact_ms``: the background oracle's
  solve wall-time, milliseconds (wall-clock, hence nondeterministic --
  like the ``stage_ms:*`` series);
* ``oracle_failures`` counter -- ``diag.oracle_error``: sampled cycles
  whose oracle raised (e.g. a :class:`~repro.errors.ModelError` on a
  hard instance), so they have an ``exact_ms`` sample but no
  ``optimality_gap`` one; absent when the oracle never failed;
* ``milp_retries`` counter -- ``diag.milp_retries``: MILP solves
  (production and oracle) that HiGHS presolve failed and a
  presolve-off retry solved; absent when none was retried;
* plus the ``fallback:model-error`` counter when a resilient run
  degraded a cycle because an exact backend raised a
  :class:`~repro.errors.ModelError`.

Runs without the knob record neither series (absent, not NaN), and the
``optimality_gap_mean`` summary metric is NaN.

These are ordinary series/counters -- schema consumers that predate them
simply see extra names, which is the recorder's documented forward-
compatible evolution path (new names may appear; existing names keep
their meaning).
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from ..errors import SimulationError
from ..types import Seconds

#: Version tag of the serialized recorder layout (see module docstring).
RECORDER_SCHEMA = "repro.recorder/v1"


class Series:
    """Append-only step-function time series."""

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def append(self, t: Seconds, value: float) -> None:
        """Record ``value`` at time ``t``.

        Times must be non-decreasing.  Recording at an existing last time
        overwrites that sample (a control decision revised within the same
        instant supersedes the previous one).
        """
        if self._times and t < self._times[-1]:
            raise SimulationError(
                f"series {self.name!r}: time {t} precedes last sample {self._times[-1]}"
            )
        if self._times and t == self._times[-1]:
            self._values[-1] = float(value)
            return
        self._times.append(float(t))
        self._values.append(float(value))

    @property
    def times(self) -> np.ndarray:
        """Sample times as a float array (copy)."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Sample values as a float array (copy)."""
        return np.asarray(self._values, dtype=float)

    def value_at(self, t: Seconds) -> float:
        """Step-function evaluation: the last recorded value at or before ``t``.

        Raises
        ------
        SimulationError
            If the series is empty or ``t`` precedes the first sample.
        """
        if not self._times:
            raise SimulationError(f"series {self.name!r} is empty")
        idx = int(np.searchsorted(np.asarray(self._times), t, side="right")) - 1
        if idx < 0:
            raise SimulationError(
                f"series {self.name!r}: {t} precedes first sample {self._times[0]}"
            )
        return self._values[idx]

    def resample(self, grid: np.ndarray) -> np.ndarray:
        """Evaluate the step function on ``grid`` (must start at/after the
        first sample)."""
        grid = np.asarray(grid, dtype=float)
        if not self._times:
            raise SimulationError(f"series {self.name!r} is empty")
        times = np.asarray(self._times)
        values = np.asarray(self._values)
        idx = np.searchsorted(times, grid, side="right") - 1
        if np.any(idx < 0):
            raise SimulationError(
                f"series {self.name!r}: grid starts before first sample {times[0]}"
            )
        return values[idx]

    def to_dict(self) -> dict[str, list[float]]:
        """Serializable ``{"times": [...], "values": [...]}`` payload."""
        return {"times": list(self._times), "values": list(self._values)}

    def time_average(self, start: Seconds, end: Seconds) -> float:
        """Exact time-weighted mean of the step function over ``[start, end]``."""
        if end <= start:
            raise SimulationError(f"empty averaging window [{start}, {end}]")
        times = np.asarray(self._times)
        values = np.asarray(self._values)
        if times.size == 0:
            raise SimulationError(f"series {self.name!r} is empty")
        # Breakpoints inside the window, plus the window edges.
        inner = (times > start) & (times < end)
        knots = np.concatenate(([start], times[inner], [end]))
        idx = np.searchsorted(times, knots[:-1], side="right") - 1
        if idx[0] < 0:
            raise SimulationError(
                f"series {self.name!r}: window starts before first sample"
            )
        widths = np.diff(knots)
        return float(np.sum(values[idx] * widths) / (end - start))


class Recorder:
    """Named collection of :class:`Series` plus scalar counters."""

    def __init__(self) -> None:
        self._series: dict[str, Series] = {}
        self._counters: dict[str, float] = {}

    # -- series --------------------------------------------------------
    def record(self, name: str, t: Seconds, value: float) -> None:
        """Append ``(t, value)`` to the series called ``name`` (auto-created)."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = Series(name)
        series.append(t, value)

    def series(self, name: str) -> Series:
        """Return the series called ``name``.

        Raises
        ------
        KeyError
            If nothing has been recorded under that name.
        """
        return self._series[name]

    def has_series(self, name: str) -> bool:
        """Whether any sample was recorded under ``name``."""
        return name in self._series

    def series_names(self) -> list[str]:
        """Sorted names of all recorded series."""
        return sorted(self._series)

    def __iter__(self) -> Iterator[Series]:
        return iter(self._series.values())

    # -- counters ------------------------------------------------------
    def bump(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount`` (auto-created at 0)."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never bumped)."""
        return self._counters.get(name, 0.0)

    @property
    def counters(self) -> Mapping[str, float]:
        """Read-only view of all counters."""
        return dict(self._counters)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Full recorder state in the ``repro.recorder/v1`` schema."""
        return {
            "schema": RECORDER_SCHEMA,
            "series": {
                name: self._series[name].to_dict() for name in sorted(self._series)
            },
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
        }
