"""Unit tests for the placement-policy registry."""

import pytest

from repro.api import scenario_spec
from repro.baselines import (
    EdfSharedPolicy,
    FcfsSharedPolicy,
    StaticPartitionPolicy,
    TxPriorityPolicy,
    available_policies,
    get_policy,
)
from repro.core.controller import UtilityDrivenController
from repro.errors import ConfigurationError

BUILTINS = {"utility", "static-partition", "fcfs", "edf", "tx-priority"}


class TestRegistry:
    def test_builtins_registered(self):
        assert BUILTINS <= set(available_policies())

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigurationError) as exc_info:
            get_policy("zzz")
        message = str(exc_info.value)
        assert "unknown placement policy 'zzz'" in message
        # Same "unknown name, known names are..." style as backends.py.
        assert "registered:" in message and "fcfs" in message

    def test_factories_build_expected_policy_types(self):
        scenario = scenario_spec("smoke").materialize()
        expected = {
            "utility": UtilityDrivenController,
            "static-partition": StaticPartitionPolicy,
            "fcfs": FcfsSharedPolicy,
            "edf": EdfSharedPolicy,
            "tx-priority": TxPriorityPolicy,
        }
        for name, cls in expected.items():
            assert isinstance(get_policy(name)(scenario), cls)

    def test_factory_uses_scenario_controller_config(self):
        scenario = scenario_spec("smoke").materialize()
        policy = get_policy("fcfs")(scenario)
        assert policy.config == scenario.controller
