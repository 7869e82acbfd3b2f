"""The benchmark's per-layer tracer still fits the package it traces.

``perfbench/tracing.py`` wraps named functions of the runner, ``core``,
``cluster``, ``perf`` and ``workloads`` layers from outside the package,
so renaming one of them breaks ``perfbench/run.py --trace 1`` without
failing any other test.  This test installs
:class:`~tracing.LayerTracer` over a short ``paper`` run through
perfbench's own :func:`run_instance` and :func:`layer_metrics` and checks
that every wrapped name resolves, that no span falls outside
``SELF_TIME_METRICS``, and that the layer self times plus
``unattributed_ms`` add up to the run's wall time.  It only reads
``perfbench/``.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    # run.py imports its sibling ``speed`` module by plain name.
    sys.path.insert(0, str(PERFBENCH))
    try:
        return _load("perfbench_tracing", "tracing.py"), _load("perfbench_run", "run.py")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_wrapped_name_resolves(perfbench):
    tracing, _ = perfbench
    from repro.experiments import runner as runner_module

    tracer = tracing.LayerTracer()
    with tracer:  # install() raises on a name that no longer exists
        wrapped = []
        for owner, name, original in tracer._restore:
            assert callable(original) or isinstance(original, property), (owner, name)
            assert inspect.getattr_static(owner, name) is not original, (owner, name)
            wrapped.append((owner, name))
        # The recording step's solves are traced where the runner calls them.
        for name in ("mean_hypothetical_utility", "longrunning_max_utility_demand"):
            assert (runner_module, name) in wrapped
        # snapshot_jobs is wrapped in each module that imported it.
        assert (runner_module, "snapshot_jobs") in wrapped
    assert not tracer._restore  # remove() put every original back


def test_traced_run_attributes_its_wall_time(perfbench):
    tracing, run = perfbench
    workload = run.Workload("paper", 1, 1, {"horizon": 6_000.0})
    tracer = tracing.LayerTracer()
    traced = run.run_instance(workload, run.DEFAULT_SEED, tracer=tracer)
    assert not traced.error, traced.error
    assert traced.cycles == traced.expected_cycles
    # layer_metrics raises on a span outside SELF_TIME_METRICS.
    metrics = run.layer_metrics(tracer, traced)
    layers = [metrics[name] for name in run.SELF_TIME_METRICS.values()]
    assert all(ms >= 0.0 for ms in layers)
    assert sum(layers) + metrics["unattributed_ms"] == pytest.approx(
        metrics["trace.wall_ms"], rel=1e-9
    )
    # Self times nest inside the run: what no span covers is the run's
    # own set-up and wrap-up around the simulation loop.
    assert 0.0 <= metrics["unattributed_ms"] < 0.25 * metrics["trace.wall_ms"]
    for layer in ("core.policy", "core.hypothetical.record", "perf.snapshot",
                  "workloads.mutate", "cluster.validate", "runner.bookkeeping"):
        assert tracer.self_s[layer] > 0.0, layer
    # An untraced run of the same instance decides the same outcome.
    plain = run.run_instance(workload, run.DEFAULT_SEED)
    assert plain.digest == traced.digest
