"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import NodeSpec, homogeneous_cluster
from repro.core.resilient import ResilientController
from repro.experiments.runner import ExperimentRunner
from repro.faults.chaos import ChaosPolicy
from repro.perf.jobmodel import JobPopulation
from repro.workloads import Job, JobPhase, JobSpec


def _injects_faults(policy) -> bool:
    """Whether ``policy`` is, or wraps, a fault-injecting :class:`ChaosPolicy`."""
    while isinstance(policy, ResilientController):
        policy = policy.inner
    return isinstance(policy, ChaosPolicy)


@pytest.fixture(autouse=True)
def strict_fallbacks(request, monkeypatch):
    """Strict mode: a run that recorded any ``fallback:*`` counter fails.

    Graceful degradation survives *injected* faults; it must not turn an
    exception in ``decide()``, an infeasible decision or a solver failure
    into a quietly degraded but passing run.  A run whose policy injects
    faults (``chaos-utility``) is exempt, and so is a test marked
    ``allow_fallback`` because it degrades on purpose.
    """
    if request.node.get_closest_marker("allow_fallback") is not None:
        return
    run = ExperimentRunner.run

    def strict_run(self):
        result = run(self)
        if not _injects_faults(self._policy):
            fallbacks = {
                name: count
                for name, count in result.recorder.counters.items()
                if name.startswith("fallback:")
            }
            if fallbacks:
                pytest.fail(f"the run fell back: {fallbacks}")
        return result

    monkeypatch.setattr(ExperimentRunner, "run", strict_run)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for stochastic test inputs."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_cluster():
    """Four paper-style nodes (4x3000 MHz, 4000 MB)."""
    return homogeneous_cluster(4)


def make_node(node_id: str = "n0", procs: int = 4, mhz: float = 3000.0,
              mem: float = 4000.0) -> NodeSpec:
    """One node with overridable hardware."""
    return NodeSpec(node_id=node_id, processors=procs,
                    mhz_per_processor=mhz, memory_mb=mem)


def make_job_spec(
    job_id: str = "j0",
    submit: float = 0.0,
    work: float = 3_000_000.0,  # 1000 s at 3000 MHz
    cap: float = 3000.0,
    mem: float = 1200.0,
    goal: float = 4000.0,
    job_class: str = "batch",
    importance: float = 1.0,
) -> JobSpec:
    """A job spec with short, test-friendly defaults."""
    return JobSpec(
        job_id=job_id,
        submit_time=submit,
        total_work=work,
        speed_cap_mhz=cap,
        memory_mb=mem,
        completion_goal=goal,
        job_class=job_class,
        importance=importance,
    )


def make_job(**kwargs) -> Job:
    """A runtime Job over :func:`make_job_spec`."""
    return Job(make_job_spec(**kwargs))


def make_job_in(phase: JobPhase, **kwargs) -> Job:
    """A :func:`make_job` job taken from PENDING into ``phase`` on ``n0``."""
    job = make_job(**kwargs)
    if phase is JobPhase.PENDING:
        return job
    job.start(0.0, "n0", job.spec.speed_cap_mhz)
    if phase is JobPhase.SUSPENDED:
        job.suspend(0.0)
    elif phase is JobPhase.COMPLETED:
        job.complete(job.spec.min_duration)
    elif phase is JobPhase.CANCELLED:
        job.cancel(0.0)
    return job


def make_population(
    t: float,
    remaining: list[float],
    caps: list[float] | None = None,
    goals_abs: list[float] | None = None,
    goal_lengths: list[float] | None = None,
    importance: list[float] | None = None,
) -> JobPopulation:
    """A JobPopulation snapshot from plain lists."""
    n = len(remaining)
    caps = caps if caps is not None else [3000.0] * n
    goal_lengths = goal_lengths if goal_lengths is not None else [4000.0] * n
    goals_abs = goals_abs if goals_abs is not None else [t + g for g in goal_lengths]
    importance = importance if importance is not None else [1.0] * n
    return JobPopulation(
        time=t,
        job_ids=tuple(f"j{i}" for i in range(n)),
        remaining=np.asarray(remaining, dtype=float),
        caps=np.asarray(caps, dtype=float),
        goals_abs=np.asarray(goals_abs, dtype=float),
        goal_lengths=np.asarray(goal_lengths, dtype=float),
        importance=np.asarray(importance, dtype=float),
    )
