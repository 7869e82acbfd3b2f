"""Unit tests for the serializable scenario-spec layer (`repro.api.spec`).

Covers the ISSUE's acceptance criteria: property-style round-trips
(spec -> dict -> JSON -> spec, equal and materializing to an identical
Scenario) including NodeFailure lists, noisy profiles and heterogeneous
node classes, plus validation errors that name the offending field.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.api import (
    AppSpec,
    ScenarioSpec,
    SpecValidationError,
    TopologySpec,
    available_scenarios,
    scenario_spec,
)
from repro.cluster import NodeClass
from repro.errors import ConfigurationError
from repro.experiments.scenario import Scenario
from repro.workloads import ConstantProfile, NoisyProfile

REPO_ROOT = Path(__file__).resolve().parents[2]


def walk(data, path="scenario"):
    """Yield ``(dotted path, key path, value)`` for every table and leaf
    of a :meth:`ScenarioSpec.to_dict` tree, tables before their items."""
    yield path, (), data
    if isinstance(data, (dict, list)):
        items = data.items() if isinstance(data, dict) else enumerate(data)
        for key, value in items:
            name = f"{path}.{key}" if isinstance(data, dict) else f"{path}[{key}]"
            for sub_path, keys, sub in walk(value, name):
                yield sub_path, (key, *keys), sub


def replaced(data: dict, keys: tuple, value) -> dict:
    """Deep copy of ``data`` with the value at ``keys`` replaced."""
    data = copy.deepcopy(data)
    cursor = data
    for key in keys[:-1]:
        cursor = cursor[key]
    cursor[keys[-1]] = value
    return data


def wrong_type(value):
    """A value of the wrong type for leaf ``value``."""
    if isinstance(value, bool):
        return "yes"
    if isinstance(value, (int, float)):
        return str(value)
    return 1


def assert_scenarios_identical(a: Scenario, b: Scenario) -> None:
    """Field-by-field equality, with profiles compared behaviorally."""
    assert a.num_nodes == b.num_nodes
    assert a.topology == b.topology
    assert a.job_specs == b.job_specs
    assert a.controller == b.controller
    assert a.costs == b.costs
    assert a.noise == b.noise
    assert a.horizon == b.horizon
    assert a.seed == b.seed
    assert a.failures == b.failures
    assert len(a.apps) == len(b.apps)
    for wa, wb in zip(a.apps, b.apps):
        assert wa.spec == wb.spec
        for t in (0.0, 299.0, 601.0, 5_000.0, 42_000.0):
            assert wa.profile.rate(t) == wb.profile.rate(t)


class TestRoundTrip:
    @pytest.mark.parametrize("name", available_scenarios())
    def test_dict_json_toml_round_trip(self, name):
        spec = scenario_spec(name)
        from_json = ScenarioSpec.from_json(json.dumps(spec.to_dict()))
        assert from_json == spec
        from_toml = ScenarioSpec.from_toml(spec.to_toml())
        assert from_toml == spec

    @pytest.mark.parametrize("name", available_scenarios())
    def test_round_trip_materializes_identically(self, name):
        spec = scenario_spec(name)
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert_scenarios_identical(spec.materialize(), rebuilt.materialize())

    def test_save_and_load_both_formats(self, tmp_path):
        spec = scenario_spec("failure-recovery")
        for suffix in (".json", ".toml"):
            path = spec.save(tmp_path / f"spec{suffix}")
            assert ScenarioSpec.load(path) == spec

    def test_unsupported_extension_rejected(self, tmp_path):
        spec = scenario_spec("smoke")
        with pytest.raises(SpecValidationError, match=r"\.yaml"):
            spec.save(tmp_path / "spec.yaml")


class TestHeterogeneousTopology:
    def test_classes_round_trip_and_materialize(self):
        spec = scenario_spec("heterogeneous-cluster")
        rebuilt = ScenarioSpec.from_toml(spec.to_toml())
        assert rebuilt.topology.classes == spec.topology.classes
        scenario = rebuilt.materialize()
        assert scenario.num_nodes == 6
        cluster = scenario.topology.build_cluster()
        assert cluster.node("modern-000").processors == 4
        assert cluster.node("legacy-002").processors == 2
        assert cluster.node("legacy-000").memory_mb == 2400.0

    def test_classes_and_num_nodes_exclusive_in_from_dict(self):
        data = scenario_spec("heterogeneous-cluster").to_dict()
        data["topology"]["num_nodes"] = 6
        with pytest.raises(SpecValidationError, match="mutually exclusive"):
            ScenarioSpec.from_dict(data)

    def test_classes_and_num_nodes_are_exclusive(self):
        with pytest.raises(SpecValidationError, match="mutually exclusive"):
            TopologySpec(
                num_nodes=3,
                classes=(
                    NodeClass(
                        name="a", count=3, processors=4,
                        mhz_per_processor=3000.0, memory_mb=4000.0,
                    ),
                ),
            )

    def test_bad_class_field_names_path(self):
        data = scenario_spec("heterogeneous-cluster").to_dict()
        data["topology"]["classes"][1]["count"] = 0
        with pytest.raises(SpecValidationError, match=r"topology\.classes\[1\]"):
            ScenarioSpec.from_dict(data)


class TestFailuresAndProfiles:
    def test_failures_round_trip_with_and_without_restore(self):
        spec = scenario_spec("failure-recovery")
        assert spec.failures[0].restore_at == 26_000.0
        assert spec.failures[1].restore_at is None
        for rebuilt in (
            ScenarioSpec.from_json(spec.to_json()),
            ScenarioSpec.from_toml(spec.to_toml()),
        ):
            assert rebuilt.failures == spec.failures

    def test_noisy_profile_round_trip_is_sample_identical(self):
        spec = scenario_spec("paper")
        profile_spec = spec.apps[0].profile
        assert isinstance(profile_spec, NoisyProfile)
        rebuilt = ScenarioSpec.from_toml(spec.to_toml()).apps[0].profile
        assert rebuilt == profile_spec
        a, b = profile_spec, rebuilt
        for t in (0.0, 300.0, 600.0, 1234.5, 69_999.0):
            assert a.rate(t) == b.rate(t)

    def test_differentiated_templates_round_trip(self):
        spec = scenario_spec("service-differentiation")
        rebuilt = ScenarioSpec.from_toml(spec.to_toml())
        assert rebuilt.jobs.templates == spec.jobs.templates
        classes = {job.job_class for job in rebuilt.materialize().job_specs}
        assert classes == {"gold", "silver"}


class TestValidationErrors:
    """Failures name the offending field by its dotted path."""

    def test_missing_required_field(self):
        with pytest.raises(SpecValidationError, match=r"scenario\.name"):
            ScenarioSpec.from_dict({"seed": 1, "horizon": 10.0,
                                    "topology": {"num_nodes": 1}})

    def test_unknown_top_level_field(self):
        data = scenario_spec("smoke").to_dict()
        data["bogus"] = 1
        with pytest.raises(SpecValidationError, match="bogus"):
            ScenarioSpec.from_dict(data)

    def test_wrong_type_names_field(self):
        data = scenario_spec("smoke").to_dict()
        data["topology"]["num_nodes"] = "four"
        with pytest.raises(SpecValidationError, match=r"topology\.num_nodes"):
            ScenarioSpec.from_dict(data)

    def test_nested_config_error_names_path(self):
        data = scenario_spec("smoke").to_dict()
        data["controller"]["solver"]["change_penalty_mhz"] = -1.0
        with pytest.raises(
            SpecValidationError, match=r"controller\.solver.*change_penalty_mhz"
        ):
            ScenarioSpec.from_dict(data)

    def test_app_error_names_indexed_path(self):
        data = scenario_spec("smoke").to_dict()
        data["apps"][0]["rt_goal"] = -1.0
        with pytest.raises(SpecValidationError, match=r"apps\[0\]"):
            ScenarioSpec.from_dict(data)

    def test_unknown_profile_kind(self):
        data = scenario_spec("smoke").to_dict()
        data["apps"][0]["profile"] = {"kind": "sawtooth"}
        with pytest.raises(SpecValidationError, match="sawtooth"):
            ScenarioSpec.from_dict(data)

    def test_unknown_schema_rejected(self):
        data = scenario_spec("smoke").to_dict()
        data["schema"] = "repro.scenario/v99"
        with pytest.raises(SpecValidationError, match="v99"):
            ScenarioSpec.from_dict(data)

    def test_uniform_trace_requires_template(self):
        data = scenario_spec("smoke").to_dict()
        data["jobs"] = {"kind": "uniform", "count": 3}
        with pytest.raises(SpecValidationError, match=r"jobs\.template"):
            ScenarioSpec.from_dict(data)

    def test_empty_apps_rejected_by_field_name(self):
        data = scenario_spec("smoke").to_dict()
        del data["apps"]
        with pytest.raises(SpecValidationError, match="apps"):
            ScenarioSpec.from_dict(data)

    def test_kind_irrelevant_fields_rejected(self):
        """Each trace kind has only the fields its generator uses."""
        data = scenario_spec("smoke").to_dict()
        data["jobs"] = {"kind": "paper", "count": 5, "start": 123.0}
        with pytest.raises(SpecValidationError, match=r"jobs\.start"):
            ScenarioSpec.from_dict(data)
        data["jobs"] = {"kind": "none", "stream": "custom"}
        with pytest.raises(SpecValidationError, match=r"jobs\.stream"):
            ScenarioSpec.from_dict(data)


class TestCodecCoverage:
    """Every leaf and every table of every registered scenario is checked
    by the codec, and its errors name the offending dotted path."""

    @pytest.mark.parametrize("name", available_scenarios())
    def test_wrong_typed_leaf_names_its_path(self, name):
        data = scenario_spec(name).to_dict()
        leaves = [
            (path, keys, value)
            for path, keys, value in walk(data)
            if not isinstance(value, (dict, list))
        ]
        assert leaves
        unnamed = []
        for path, keys, value in leaves:
            try:
                ScenarioSpec.from_dict(replaced(data, keys, wrong_type(value)))
            except SpecValidationError as exc:
                if path not in str(exc):
                    unnamed.append(f"{path}: {exc}")
            else:
                unnamed.append(f"{path}: accepted {wrong_type(value)!r}")
        assert not unnamed, "\n".join(unnamed)

    @pytest.mark.parametrize("name", available_scenarios())
    def test_unknown_key_in_any_table_is_rejected_by_name(self, name):
        data = scenario_spec(name).to_dict()
        unnamed = []
        for path, keys, value in walk(data):
            if not isinstance(value, dict):
                continue
            bogus = replaced(data, (*keys, "bogus"), 1)
            try:
                ScenarioSpec.from_dict(bogus)
            except SpecValidationError as exc:
                if f"{path}.bogus" not in str(exc):
                    unnamed.append(f"{path}: {exc}")
            else:
                unnamed.append(f"{path}: accepted a bogus key")
        assert not unnamed, "\n".join(unnamed)


class TestOverrides:
    def test_nested_override(self):
        spec = scenario_spec("smoke").with_overrides(
            {"controller.control_cycle": 120.0, "horizon": 600.0}
        )
        assert spec.controller.control_cycle == 120.0
        assert spec.horizon == 600.0

    def test_list_index_override(self):
        spec = scenario_spec("smoke").with_overrides({"apps.0.rt_goal": 0.8})
        assert spec.apps[0].rt_goal == 0.8

    def test_unknown_override_path_fails_by_name(self):
        with pytest.raises(SpecValidationError, match="controler"):
            scenario_spec("smoke").with_overrides({"controler.control_cycle": 1.0})


class TestCheckedInSpecFiles:
    """examples/specs/ stays loadable and in sync with the registry."""

    def test_spec_files_are_canonical(self, tmp_path):
        paths = sorted((REPO_ROOT / "examples/specs").glob("*"))
        assert paths
        # The benchmark's input too: renaming or removing a spec or config
        # field must fail here, not only when the benchmark runs.
        paths.append(REPO_ROOT / "perfbench/specs/scale-1000.toml")
        for path in paths:
            saved = ScenarioSpec.load(path).save(tmp_path / path.name)
            assert saved.read_bytes() == path.read_bytes(), path.name

    def test_smoke_json_matches_registry(self):
        spec = ScenarioSpec.load(REPO_ROOT / "examples/specs/smoke.json")
        assert spec == scenario_spec("smoke")

    def test_heterogeneous_toml_matches_registry(self):
        spec = ScenarioSpec.load(
            REPO_ROOT / "examples/specs/heterogeneous-cluster.toml"
        )
        assert spec == scenario_spec("heterogeneous-cluster")

    def test_multi_app_differentiation_json_matches_registry(self):
        spec = ScenarioSpec.load(
            REPO_ROOT / "examples/specs/multi-app-differentiation.json"
        )
        assert spec == scenario_spec("multi-app-differentiation")

    def test_diurnal_toml_matches_registry(self):
        spec = ScenarioSpec.load(REPO_ROOT / "examples/specs/diurnal.toml")
        assert spec == scenario_spec("diurnal")

    def test_chaos_soak_toml_matches_registry(self):
        spec = ScenarioSpec.load(REPO_ROOT / "examples/specs/chaos-soak.toml")
        assert spec == scenario_spec("chaos-soak")
        assert spec.faults is not None


class TestNewScenarioShapes:
    """The replication material scenarios expose the advertised structure."""

    def test_multi_app_has_two_apps_with_distinct_rt_goals(self):
        spec = scenario_spec("multi-app-differentiation")
        assert [app.app_id for app in spec.apps] == ["web-premium", "web-budget"]
        premium, budget = spec.apps
        assert premium.rt_goal < budget.rt_goal
        assert spec.jobs.kind == "paper"  # batch jobs still compete

    def test_diurnal_profile_swings_over_the_day(self):
        spec = scenario_spec("diurnal")
        assert spec.horizon == 86_400.0
        profile = spec.apps[0].profile
        trough = profile.rate(0.0)
        peak = profile.rate(43_200.0)
        assert peak > trough > 0.0


class TestAppSpecValidation:
    def test_invalid_app_fails_eagerly(self):
        with pytest.raises(ConfigurationError, match="rt_goal"):
            AppSpec(
                app_id="web", rt_goal=0.0, mean_service_cycles=100.0,
                request_cap_mhz=1000.0, instance_memory_mb=100.0,
                profile=ConstantProfile(10.0),
            )


class TestNetworkBlock:
    def test_network_round_trips_dict_json_toml(self, tmp_path):
        spec = scenario_spec("edge-cloud-continuum")
        assert spec.network is not None
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        path = tmp_path / "edge.toml"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_network_materializes_into_scenario(self):
        scenario = scenario_spec("edge-cloud-continuum").materialize()
        assert scenario.network is not None
        assert scenario.network.zone_names() == ("edge", "metro", "cloud")
        assert scenario.topology.zone_map()["edge-000"] == "edge"

    def test_network_requires_class_based_topology(self):
        data = scenario_spec("edge-cloud-continuum").to_dict()
        data["topology"] = {"num_nodes": 4, "processors": 2,
                            "mhz_per_processor": 2000.0, "memory_mb": 2000.0}
        with pytest.raises(SpecValidationError, match="class-based topology"):
            ScenarioSpec.from_dict(data)

    def test_undeclared_class_zone_rejected_with_path(self):
        data = scenario_spec("edge-cloud-continuum").to_dict()
        data["topology"]["classes"][0]["zone"] = "orbit"
        with pytest.raises(
            SpecValidationError, match=r"topology\.classes\[0\].*orbit"
        ):
            ScenarioSpec.from_dict(data)

    def test_unknown_network_field_rejected_by_name(self):
        data = scenario_spec("edge-cloud-continuum").to_dict()
        data["network"]["jitter"] = 1.0
        with pytest.raises(SpecValidationError, match="jitter"):
            ScenarioSpec.from_dict(data)

    def test_invalid_matrix_names_network_path(self):
        data = scenario_spec("edge-cloud-continuum").to_dict()
        data["network"]["rtt_ms"][0][1] = -5.0
        with pytest.raises(SpecValidationError, match="network"):
            ScenarioSpec.from_dict(data)

    def test_no_network_block_omitted_from_dict(self):
        data = scenario_spec("smoke").to_dict()
        assert "network" not in data
        assert scenario_spec("smoke").network is None
