"""Unit tests for the codec's table, sample and strict-JSON rules.

The spec-facing rules (fields, tagged unions, omitted ``None``) are
covered through :class:`~repro.api.spec.ScenarioSpec` in
``test_api_spec.py``.
"""

import ast
import json
import math
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro.codec
from repro.codec import Sample, SpecValidationError, decode, dumps_json, encode


@dataclass(frozen=True)
class Point:
    label: str
    value: Sample


class TestTables:
    def test_keys_keep_their_order(self):
        table = decode(dict[str, int], {"b": 1, "a": 2, "c": 3}, "t")
        assert list(table) == ["b", "a", "c"]

    def test_values_decode_at_their_key(self):
        with pytest.raises(SpecValidationError, match=r"^t\.a: expected an integer"):
            decode(dict[str, int], {"b": 1, "a": "two"}, "t")

    def test_a_list_is_not_a_table(self):
        with pytest.raises(SpecValidationError, match=r"^t: expected a table"):
            decode(dict[str, int], [1, 2], "t")

    def test_encode_recurses_into_values(self):
        data = {"x": Point("p", 1.5), "y": Point("q", 2.0)}
        assert encode(data) == {
            "x": {"label": "p", "value": 1.5},
            "y": {"label": "q", "value": 2.0},
        }


class TestSample:
    def test_null_is_nan(self):
        assert math.isnan(decode(Sample, None, "s"))

    def test_numbers_are_floats(self):
        value = decode(Sample, 3, "s")
        assert value == 3.0 and isinstance(value, float)

    @pytest.mark.parametrize("bad", ["3", True, [1.0]])
    def test_other_values_fail_by_path(self, bad):
        with pytest.raises(SpecValidationError, match=r"^s: expected a number"):
            decode(Sample, bad, "s")

    def test_dataclass_fields_keep_the_annotation(self):
        point = decode(Point, {"label": "p", "value": None}, "point")
        assert point.label == "p" and math.isnan(point.value)

    def test_plain_floats_still_reject_null(self):
        with pytest.raises(SpecValidationError, match=r"^f: expected a number"):
            decode(float, None, "f")


class TestDumpsJson:
    def test_non_finite_floats_become_null(self):
        text = dumps_json({"a": math.nan, "b": [math.inf, -math.inf, 1.0]})
        assert json.loads(text) == {"a": None, "b": [None, None, 1.0]}

    def test_indent_two_and_key_order(self):
        assert dumps_json({"z": 1, "a": (2,)}) == '{\n  "z": 1,\n  "a": [\n    2\n  ]\n}'

    def test_round_trips_through_decode(self):
        point = Point("p", math.nan)
        back = decode(Point, json.loads(dumps_json(encode(point))), "point")
        assert back.label == "p" and math.isnan(back.value)


def test_codec_imports_nothing_from_repro_but_errors():
    tree = ast.parse(Path(repro.codec.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    local = {name for name in imported if name.startswith((".", "repro"))}
    assert local == {".errors"}
