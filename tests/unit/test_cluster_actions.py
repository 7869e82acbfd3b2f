"""Unit tests for placement actions, costs and the action log."""

import pytest

from repro.cluster import (
    ActionCosts,
    ActionLog,
    CpuGrants,
    MigrateVm,
    ResumeVm,
    StartVm,
    StopVm,
    SuspendVm,
)
from repro.errors import ConfigurationError


class TestActionCosts:
    def test_defaults_are_nonnegative(self):
        costs = ActionCosts()
        assert costs.start_delay >= 0
        assert costs.suspend_checkpoint_loss >= 0
        assert costs.resume_delay >= 0
        assert costs.migrate_pause >= 0

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            ActionCosts(resume_delay=-1.0)

    def test_zero_costs_allowed(self):
        costs = ActionCosts(0.0, 0.0, 0.0, 0.0)
        assert costs.migrate_pause == 0.0


class TestActionLog:
    def test_counts_by_type(self):
        log = ActionLog()
        log.count([
            StartVm("a", "n0", 100.0),
            StopVm("b"),
            SuspendVm("c"),
            ResumeVm("d", "n1", 100.0),
            MigrateVm("e", "n0", "n1", 100.0),
            CpuGrants(("f",), (50.0,)),
        ])
        assert log.starts == 1
        assert log.stops == 1
        assert log.suspensions == 1
        assert log.resumptions == 1
        assert log.migrations == 1
        assert log.adjustments == 1

    def test_grants_count_one_adjustment_per_vm(self):
        log = ActionLog()
        log.count([CpuGrants(("f", "g", "h"), (50.0, 60.0, 70.0))])
        log.count([CpuGrants(("f",), (55.0,)), CpuGrants(("g",), (65.0,))])
        assert log.adjustments == 5

    def test_disruptive_total_excludes_adjustments(self):
        log = ActionLog()
        log.count([StartVm("a", "n0", 1.0), CpuGrants(("f",), (50.0,))])
        assert log.disruptive_total == 1

    def test_by_cycle_records_each_call(self):
        log = ActionLog()
        log.count([StartVm("a", "n0", 1.0)])
        log.count([CpuGrants(("f",), (50.0,))])
        assert log.by_cycle == [1, 0]

    def test_accumulates_across_cycles(self):
        log = ActionLog()
        log.count([StartVm("a", "n0", 1.0)])
        log.count([StartVm("b", "n1", 1.0)])
        assert log.starts == 2


class TestCpuGrants:
    def test_length_is_the_number_of_vms(self):
        assert len(CpuGrants(("a", "b"), (1.0, 2.0))) == 2

    def test_compares_by_value(self):
        assert CpuGrants(("a",), (1.0,)) == CpuGrants(("a",), (1.0,))
        assert CpuGrants(("a",), (1.0,)) != CpuGrants(("a",), (2.0,))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            CpuGrants(("a", "b"), (1.0,))
