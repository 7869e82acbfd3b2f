"""Unit tests for baseline placement policies."""

import pytest

from repro.baselines import (
    EdfSharedPolicy,
    FcfsSharedPolicy,
    StaticPartitionPolicy,
    TxPriorityPolicy,
)
from repro.cluster import Placement, homogeneous_cluster
from repro.config import ControllerConfig
from repro.errors import ConfigurationError
from repro.workloads import TransactionalAppSpec

from ..conftest import make_job, make_job_spec
from repro.workloads import Job


def app_spec() -> TransactionalAppSpec:
    return TransactionalAppSpec(
        app_id="web", rt_goal=0.4, mean_service_cycles=300.0,
        request_cap_mhz=3000.0, instance_memory_mb=400.0,
        min_instances=1, max_instances=8, model_kind="closed", think_time=0.2,
    )


def decide(policy, jobs, t=0.0, n_nodes=4):
    cluster = homogeneous_cluster(n_nodes)
    decision = policy.decide(
        t,
        nodes=list(cluster),
        jobs=jobs,
        current_placement=Placement(),
        app_nodes={"web": frozenset()},
    )
    decision.placement.validate(cluster)
    return decision


class TestStaticPartition:
    def test_jobs_confined_to_their_partition(self):
        policy = StaticPartitionPolicy([app_spec()], ControllerConfig(), lr_fraction=0.5)
        policy.observe_app("web", load=40.0)
        jobs = [make_job(job_id=f"j{i}") for i in range(6)]
        decision = decide(policy, jobs)
        lr_nodes = {"node000", "node001"}
        for entry in decision.placement:
            if entry.vm_id.startswith("vm-"):
                assert entry.node_id in lr_nodes
            else:
                assert entry.node_id not in lr_nodes

    def test_partition_jobs_run_at_full_speed_fcfs(self):
        policy = StaticPartitionPolicy([app_spec()], ControllerConfig(), lr_fraction=0.5)
        policy.observe_app("web", load=10.0)
        jobs = [make_job(job_id=f"j{i}", submit=float(i)) for i in range(6)]
        decision = decide(policy, jobs, t=10.0)
        # 2 LR nodes x 3 memory slots = 6 jobs fit, each at its cap.
        assert len(decision.solution.job_rates) == 6
        assert all(r == pytest.approx(3000.0)
                   for r in decision.solution.job_rates.values())

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticPartitionPolicy([app_spec()], lr_fraction=0.0)

    def test_tx_capped_by_partition_capacity(self):
        policy = StaticPartitionPolicy([app_spec()], ControllerConfig(), lr_fraction=0.75)
        policy.observe_app("web", load=210.0)  # demand ~210k
        decision = decide(policy, [])
        # One TX node only: 12 GHz.
        assert decision.solution.satisfied_tx_demand <= 12_000.0 + 1e-6


class TestFcfsShared:
    def test_admission_in_submission_order(self):
        policy = FcfsSharedPolicy([app_spec()], ControllerConfig())
        policy.observe_app("web", load=10.0)
        # 4 nodes x 3 slots = 12 slots; submit 14 jobs.
        jobs = [make_job(job_id=f"j{i:02d}", submit=float(i)) for i in range(14)]
        decision = decide(policy, jobs, t=20.0)
        placed = set(decision.solution.job_rates)
        assert placed == {f"j{i:02d}" for i in range(12)}  # first 12 by submit

    def test_jobs_run_at_cap(self):
        policy = FcfsSharedPolicy([app_spec()], ControllerConfig())
        policy.observe_app("web", load=10.0)
        jobs = [make_job(job_id=f"j{i}") for i in range(3)]
        decision = decide(policy, jobs)
        assert all(r == pytest.approx(3000.0)
                   for r in decision.solution.job_rates.values())


class TestEdfShared:
    def test_admission_by_deadline(self):
        policy = EdfSharedPolicy([app_spec()], ControllerConfig())
        policy.observe_app("web", load=10.0)
        tight = Job(make_job_spec(job_id="tight", submit=5.0, goal=1000.0))
        loose = Job(make_job_spec(job_id="loose", submit=0.0, goal=50_000.0))
        fillers = [make_job(job_id=f"f{i}", submit=1.0, goal=2000.0)
                   for i in range(11)]
        decision = decide(policy, [loose, tight] + fillers, t=6.0)
        placed = set(decision.solution.job_rates)
        assert "tight" in placed          # deadline 1005
        assert "loose" not in placed      # deadline 50 000: last in line


class TestTxPriority:
    def test_tx_demand_served_before_jobs(self):
        policy = TxPriorityPolicy([app_spec()], ControllerConfig())
        policy.observe_app("web", load=130.0)  # demand ~130k of 48k cluster
        jobs = [make_job(job_id=f"j{i}") for i in range(6)]
        decision = decide(policy, jobs)
        # The whole cluster is below the TX demand: jobs get nothing.
        assert decision.solution.satisfied_lr_demand == 0.0

    def test_leftover_budget_flows_to_jobs_fcfs(self):
        policy = TxPriorityPolicy([app_spec()], ControllerConfig())
        policy.observe_app("web", load=30.0)  # demand ~30k, cluster 48k
        jobs = [make_job(job_id=f"j{i}", submit=float(i)) for i in range(8)]
        decision = decide(policy, jobs, t=10.0)
        lr = decision.solution.satisfied_lr_demand
        assert lr > 0.0
        assert lr <= 48_000.0 - decision.diagnostics.tx_demand + 1e-6


class TestCommonBehaviour:
    @pytest.mark.parametrize("policy_cls", [
        StaticPartitionPolicy, FcfsSharedPolicy, EdfSharedPolicy, TxPriorityPolicy,
    ])
    def test_diagnostics_not_equalized(self, policy_cls):
        policy = policy_cls([app_spec()], ControllerConfig())
        policy.observe_app("web", load=20.0)
        decision = decide(policy, [make_job(job_id="j0")])
        assert decision.diagnostics.equalized is False
        assert decision.diagnostics.arbiter_iterations == 0

    @pytest.mark.parametrize("policy_cls", [
        StaticPartitionPolicy, FcfsSharedPolicy, EdfSharedPolicy, TxPriorityPolicy,
    ])
    def test_policy_names_distinct(self, policy_cls):
        assert policy_cls.policy_name != "baseline"
