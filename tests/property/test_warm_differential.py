"""Warm-started decide() == cold decide(), bit for bit, across cycles.

The incremental control plane's contract is stronger than the 1e-8
utility tolerance the acceptance criteria allow: warm starts accelerate
evaluations (the previous cycle's level starts the equalizer's verified
level predictor), never the search trajectory, so a warm controller
must produce *identical* decisions to a cold one on every cycle of any
trace -- including the cycle right after a node failure, which still
starts from the level the previous cycle equalized over more nodes.

These tests drive a warm and a cold controller side by side over
randomized multi-cycle traces with arrivals, progress, completions and a
mid-trace node failure, asserting decision equality each cycle; a second
group pins the equalizer-level property directly (any seed level and
any predicted level give the frozen cold bisection's result, bit for
bit).
"""

import numpy as np
import pytest

from repro.cluster.node import NodeSpec
from repro.cluster.placement import Placement
from repro.config import ControllerConfig
from repro.core import UtilityDrivenController
from repro.core.hypothetical import HypotheticalEqualizer, mean_hypothetical_utility
from repro.perf.jobmodel import JobPopulation
from repro.workloads.jobs import Job, JobSpec
from repro.workloads.transactional import TransactionalAppSpec

from .reference_equalizer import assert_bit_equal, reference_equalize, reference_node

CYCLE = 600.0


def _make_nodes(n):
    return [
        NodeSpec(
            node_id=f"n{i:02d}",
            processors=2,
            mhz_per_processor=2000.0,
            memory_mb=6000.0,
        )
        for i in range(n)
    ]


def _make_jobs(rng, n_jobs, horizon):
    jobs = []
    for i in range(n_jobs):
        jobs.append(
            Job(
                JobSpec(
                    job_id=f"j{i:03d}",
                    submit_time=float(rng.uniform(0.0, horizon * 0.6)),
                    total_work=float(rng.uniform(1e6, 2e7)),
                    speed_cap_mhz=float(rng.choice([1500.0, 2500.0, 3500.0])),
                    memory_mb=float(rng.choice([800.0, 1500.0])),
                    completion_goal=float(rng.uniform(3600.0, 40000.0)),
                    importance=float(rng.choice([1.0, 1.0, 2.0])),
                )
            )
        )
    return jobs


def _assert_decisions_identical(a, b, cycle):
    assert dict(a.solution.job_rates) == dict(b.solution.job_rates), cycle
    assert dict(a.solution.app_allocations) == dict(b.solution.app_allocations), cycle
    entries_a = {e.vm_id: e for e in a.placement}
    entries_b = {e.vm_id: e for e in b.placement}
    assert entries_a == entries_b, cycle
    assert list(a.actions) == list(b.actions), cycle
    da, db = a.diagnostics, b.diagnostics
    assert da.tx_target == db.tx_target and da.lr_target == db.lr_target, cycle
    assert da.tx_utility_predicted == db.tx_utility_predicted, cycle
    assert da.lr_utility_mean == db.lr_utility_mean, cycle
    assert da.lr_utility_level == db.lr_utility_level, cycle
    assert np.array_equal(a.hypothetical.rates, b.hypothetical.rates), cycle


def _apply_decision(decision, jobs_by_vm, t):
    """Enact a decision instantly (no virtualization delays).

    A simplified runner: rates apply immediately, suspends lose nothing.
    Both controllers see the world evolved by the *same* (warm) decision,
    so any divergence between them is the control plane's fault, not the
    harness's.
    """
    from repro.cluster.actions import (
        AdjustCpu,
        MigrateVm,
        ResumeVm,
        StartVm,
        StopVm,
        SuspendVm,
    )

    for action in decision.actions:
        job = jobs_by_vm.get(action.vm_id)
        if job is None:
            continue  # web instance actions: no job state to evolve
        if isinstance(action, StartVm):
            job.start(t, action.node_id, action.cpu_mhz)
        elif isinstance(action, ResumeVm):
            job.start(t, action.node_id, action.cpu_mhz)
        elif isinstance(action, MigrateVm):
            job.migrate(t, action.dst_node_id, action.cpu_mhz)
        elif isinstance(action, SuspendVm):
            job.suspend(t)
        elif isinstance(action, StopVm):
            job.cancel(t)
        elif isinstance(action, AdjustCpu):
            job.set_rate(t, action.cpu_mhz)


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_warm_equals_cold_over_random_trace_with_failure(seed):
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(4, 9))
    n_cycles = 12
    fail_cycle = int(rng.integers(4, 8))
    horizon = n_cycles * CYCLE

    nodes = _make_nodes(n_nodes)
    app_spec = TransactionalAppSpec(
        app_id="web",
        rt_goal=0.5,
        mean_service_cycles=250.0,
        request_cap_mhz=2000.0,
        instance_memory_mb=500.0,
        min_instances=1,
        max_instances=n_nodes,
        model_kind="closed",
        think_time=0.25,
    )
    warm = UtilityDrivenController([app_spec])
    cold = UtilityDrivenController([app_spec], ControllerConfig(warm_start=False))
    assert warm.config.warm_start and not cold.config.warm_start

    jobs = _make_jobs(rng, int(rng.integers(15, 40)), horizon)
    jobs_by_vm = {j.vm_id: j for j in jobs}
    placement = Placement()
    active = list(nodes)
    app_nodes = {"web": frozenset()}

    for k in range(n_cycles):
        t = k * CYCLE
        # Progress running jobs and complete the finished ones.
        for job in jobs:
            if job.phase.name == "RUNNING":
                job.advance_to(t)
                if job.remaining_work <= 0.0:
                    job.complete(t)
                    if job.vm_id in placement:
                        placement.remove(job.vm_id)

        if k == fail_cycle:
            dead = active.pop(0)
            for entry in list(placement.entries_on(dead.node_id)):
                job = jobs_by_vm.get(entry.vm_id)
                if job is not None and job.phase.name == "RUNNING":
                    job.suspend(t)
                placement.remove(entry.vm_id)
            app_nodes = {
                "web": frozenset(
                    n for n in app_nodes["web"] if n != dead.node_id
                )
            }

        load = float(rng.uniform(20.0, 160.0))
        cycles_obs = float(rng.uniform(200.0, 300.0))
        for controller in (warm, cold):
            controller.observe_app("web", load=load, service_cycles=cycles_obs)

        kwargs = dict(
            nodes=active,
            jobs=jobs,
            current_placement=placement,
            app_nodes=app_nodes,
        )
        decision_w = warm.decide(t, **kwargs)
        decision_c = cold.decide(t, **kwargs)
        _assert_decisions_identical(decision_w, decision_c, cycle=k)

        # Every cycle after the first runs warm, the failure's included,
        # or the differential proves nothing.
        assert decision_w.diagnostics.telemetry.mode == ("warm" if k else "cold")
        assert decision_c.diagnostics.telemetry.mode == "cold"

        _apply_decision(decision_w, jobs_by_vm, t)
        placement = decision_w.placement.copy()
        app_nodes = {
            "web": frozenset(
                e.node_id for e in placement if e.vm_id.startswith("tx:web@")
            )
        }


def test_degraded_cycle_mid_trace_matches_cold():
    """A cycle that decides nothing leaves the next one warm and unchanged.

    Cycle 3 degrades: neither controller decides and the incumbent
    placement stays in force, as under the resilient fallback.  Cycle 4
    then starts from the level cycle 2 equalized.
    """
    rng = np.random.default_rng(5)
    nodes = _make_nodes(5)
    app_spec = TransactionalAppSpec(
        app_id="web",
        rt_goal=0.4,
        mean_service_cycles=300.0,
        request_cap_mhz=2500.0,
        instance_memory_mb=400.0,
        min_instances=1,
        max_instances=5,
        model_kind="closed",
        think_time=0.2,
    )
    warm = UtilityDrivenController([app_spec])
    cold = UtilityDrivenController([app_spec], ControllerConfig(warm_start=False))
    jobs = _make_jobs(rng, 20, 6 * CYCLE)
    jobs_by_vm = {j.vm_id: j for j in jobs}
    placement = Placement()
    for k in range(6):
        t = k * CYCLE
        for job in jobs:
            if job.phase.name == "RUNNING":
                job.advance_to(t)
        load = float(rng.uniform(30.0, 120.0))
        for controller in (warm, cold):
            controller.observe_app("web", load=load)
        if k == 3:
            continue
        kwargs = dict(
            nodes=nodes,
            jobs=jobs,
            current_placement=placement,
            app_nodes={"web": frozenset()},
        )
        decision_w = warm.decide(t, **kwargs)
        decision_c = cold.decide(t, **kwargs)
        _assert_decisions_identical(decision_w, decision_c, cycle=k)
        assert decision_w.diagnostics.telemetry.mode == ("warm" if k else "cold")
        _apply_decision(decision_w, jobs_by_vm, t)
        placement = decision_w.placement.copy()


class _FixedPrediction(HypotheticalEqualizer):
    """An equalizer whose level predictor returns a chosen bracket."""

    def __init__(self, population, low, high):
        super().__init__(population)
        self.prediction = (low, high)

    def _predict(self, allocation, bisect_iters):
        return self.prediction


class TestSeededEqualizerProperty:
    """A seeded equalization equals the cold bisection for *any* seed level
    and any predicted level."""

    def _random_population(self, rng):
        # Up to 300 jobs: past numpy's 128-element pairwise-summation block.
        n = int(rng.integers(1, 301))
        t = float(rng.uniform(0.0, 60000.0))
        remaining = rng.uniform(0.0, 1e7, n)
        remaining[rng.random(n) < 0.15] = 0.0
        caps = rng.uniform(200.0, 4000.0, n)
        goal_lengths = rng.uniform(300.0, 80000.0, n)
        submit = rng.uniform(0.0, t, n)
        goals_abs = submit + goal_lengths * rng.uniform(0.3, 2.5, n)
        return JobPopulation(
            time=t,
            job_ids=tuple(f"j{i}" for i in range(n)),
            remaining=remaining,
            caps=caps,
            goals_abs=goals_abs,
            goal_lengths=goal_lengths,
            importance=rng.uniform(0.5, 2.0, n),
        )

    def _hostile_levels(self, rng, population):
        """Levels no result may depend on: NaN, infinities, levels outside
        the bracket, the bracket ends, and the exact endpoints of the cold
        bisection's nodes around an equalized level."""
        u_lo0, u_hi0 = HypotheticalEqualizer(population).bracket
        cold = reference_equalize(population, 0.5 * population.total_cap).utility_level
        levels = [np.nan, np.inf, -np.inf, u_lo0 - 5.0, u_hi0 + 5.0, u_lo0, u_hi0]
        for depth in (1, 7, 29, 30, 31, 45, 48, 60):
            levels.extend(reference_node(population, cold, depth))
        levels.append(float(rng.uniform(-10.0, 3.0)))
        return levels

    def test_seeded_bisection_bit_identical(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            population = self._random_population(rng)
            cap = population.total_cap
            hostile = self._hostile_levels(rng, population)
            for _ in range(4):
                allocation = float(
                    rng.choice([0.0, 1e-9 * cap, rng.uniform(0.0, 1.2 * cap)])
                )
                iters = int(rng.choice([1, 7, 30, 48, 100]))
                want = reference_equalize(population, allocation, iters)
                low, high = (hostile[int(i)] for i in rng.integers(len(hostile), size=2))
                # A hostile warm level only starts the predictor ...
                seeded = HypotheticalEqualizer(population)
                seeded.seed_level(low)
                assert_bit_equal(seeded.equalize(allocation, bisect_iters=iters), want)
                # ... also as the start of the recording step's solve ...
                mean = mean_hypothetical_utility(population, allocation, start=low)
                exact = reference_equalize(population, allocation)
                assert mean.hex() == exact.mean_utility.hex()
                # ... while a hostile prediction (a level, or a bracket in
                # any order) reaches verification itself.
                for prediction in ((low, low), (low, high)):
                    predicted = _FixedPrediction(population, *prediction)
                    assert_bit_equal(
                        predicted.equalize(allocation, bisect_iters=iters), want
                    )

    def test_prediction_verifies_within_eight_passes(self):
        rng = np.random.default_rng(9)
        population = self._random_population(rng)
        allocation = population.total_cap * 0.5
        level = reference_equalize(population, allocation).utility_level
        seeded = HypotheticalEqualizer(population)
        seeded.seed_level(level)
        result = seeded.equalize(allocation, bisect_iters=30)
        assert_bit_equal(result, reference_equalize(population, allocation, 30))
        assert seeded.stats.seed_hits == 1
        # The floor check, the predictor's Newton steps and the two
        # endpoint checks of the verified depth-30 node; the cold
        # bisection spends about 30.
        assert seeded.stats.evals <= 8
