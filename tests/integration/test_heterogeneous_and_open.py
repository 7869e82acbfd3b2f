"""Integration tests for heterogeneous hardware and the open-arrival model.

The paper's evaluation uses homogeneous nodes and a closed transactional
population; these tests exercise the other supported configurations end
to end: mixed hardware generations and a Poisson-arrival web workload.
"""

import dataclasses

import pytest

from repro.api import scenario_spec
from repro.experiments import run_scenario
from repro.experiments.scenario import AppWorkload, Scenario
from repro.sim import RngRegistry
from repro.workloads import (
    ConstantProfile,
    JobTemplate,
    TransactionalAppSpec,
    uniform_job_trace,
)


class TestHeterogeneousCluster:
    """Mixed node generations via per-scenario node parameters.

    Scenario builds homogeneous clusters; heterogeneity enters through
    the cluster builder, so this test drives the controller directly on
    a mixed topology through a custom scenario replacement of nodes by
    running two sub-scenarios with different node shapes and comparing
    feasibility, plus a direct solver check on a mixed rack.
    """

    def test_solver_handles_mixed_hardware(self):
        from repro.cluster import NodeClass, cluster_from_classes
        from repro.core import AppRequest, JobRequest, PlacementSolver

        cluster = cluster_from_classes([
            NodeClass("rack0", 2, 4, 3000.0, 4000.0),   # modern rack
            NodeClass("rack1", 2, 2, 2000.0, 2400.0),   # old rack: 4 GHz, two job slots
        ])
        jobs = [
            JobRequest(
                job_id=f"j{i}", vm_id=f"vm-j{i}", target_rate=3000.0,
                speed_cap=3000.0, memory_mb=1200.0, current_node=None,
                was_suspended=False, submit_time=float(i), remaining_work=1e7,
            )
            for i in range(10)
        ]
        apps = [AppRequest(
            app_id="web", target_allocation=10_000.0, instance_memory_mb=400.0,
            min_instances=1, max_instances=4, current_nodes=frozenset(),
        )]
        solution = PlacementSolver().solve(list(cluster), apps, jobs)
        solution.placement.validate(cluster)
        # Old-rack nodes must not be overfilled (2400 MB -> 2 jobs max).
        for node_id in ("rack1-000", "rack1-001"):
            entries = solution.placement.entries_on(node_id)
            job_entries = [e for e in entries if e.vm_id.startswith("vm-")]
            assert len(job_entries) <= 2


@pytest.fixture(scope="module")
def open_model_result():
    base = scenario_spec("paper", scale=0.2, seed=31).materialize()
    spec = TransactionalAppSpec(
        app_id="openweb", rt_goal=0.4, mean_service_cycles=300.0,
        request_cap_mhz=3000.0, instance_memory_mb=400.0,
        min_instances=1, max_instances=5, model_kind="open",
    )
    # Offered load 60 req/s x 300 MHz·s = 18 GHz of a 60 GHz cluster.
    trace = uniform_job_trace(
        RngRegistry(31).stream("jobs"),
        JobTemplate(15_000.0 * 3000.0, 3000.0, 1200.0, 4.0),
        count=40, mean_interarrival=1_300.0,
    )
    scenario: Scenario = dataclasses.replace(
        base,
        name="open-arrivals",
        apps=(AppWorkload(spec, ConstantProfile(60.0)),),
        job_specs=tuple(trace),
    )
    return run_scenario(scenario)


class TestOpenArrivalModel:
    def test_runs_to_completion(self, open_model_result):
        assert open_model_result.cycles > 100

    def test_tx_kept_stable(self, open_model_result):
        """With open arrivals the model diverges if the app is allocated
        below its offered load; the controller must keep it stable."""
        rec = open_model_result.recorder
        horizon = open_model_result.scenario.horizon
        rt = rec.series("tx_rt:openweb").time_average(0.0, horizon)
        assert rt < 1.0  # far from divergence (goal 0.4, floor 0.1)
        alloc = rec.series("tx_allocation").values
        assert (alloc >= 18_000.0).mean() > 0.95

    def test_jobs_progress_alongside(self, open_model_result):
        outcomes = open_model_result.job_outcomes()
        assert outcomes["completed"] >= 10
