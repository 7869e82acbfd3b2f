"""The one codec: dataclasses <-> plain JSON/TOML data, driven by type hints.

:func:`encode` / :func:`decode` read and write every serialized form of
the package -- scenario specs (:mod:`repro.api.spec`) with the runtime
dataclasses they hold directly (the controller config, node classes,
intensity profiles, faults and the network), and saved results
(:mod:`repro.experiments.runner`, :mod:`repro.experiments.replication`).
Its rules:

* **Fields map to keys**, in field order; tuples are lists.  Decoding
  checks each value against its type hint and rejects unknown keys,
  both by dotted path; a missing key takes the field's default.
* **Unions are tagged by** ``kind``: each member of a union of
  dataclasses (intensity profiles, job traces) has a ``kind`` class
  attribute, written as its table's first key.
* **None and empty tuples are omitted** (a failure without
  ``restore_at``, an unlimited ``change_budget``), because TOML has no
  null.
* **``dict[str, T]`` is a table** whose keys keep their order; each
  value decodes at ``path.key``.
* **A ``float`` is finite.**  Decoding rejects NaN and infinities
  (which JSON and TOML readers accept) by dotted path, so no spec file,
  ``--set`` override or :meth:`~repro.api.spec.ScenarioSpec.with_overrides`
  value carries one into a run.
* **:data:`Sample` is a float that may be NaN.**  Strict JSON has no
  NaN, so :func:`dumps_json` writes non-finite floats as ``null`` and a
  ``Sample`` decodes ``null`` back to NaN; saved results need both.

This module imports nothing from :mod:`repro` but :mod:`repro.errors`,
so every layer can use it without an import cycle.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from typing import Annotated, Literal, Mapping, Sequence, Union

from .errors import ConfigurationError


class SpecValidationError(ConfigurationError):
    """A serialized payload is invalid; the message names the field."""


#: A float that may be NaN; decodes JSON ``null`` as NaN.
Sample = Annotated[float, "null is NaN"]

_SCALARS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def encode(value: object) -> object:
    """``value`` as plain data: tables, lists and scalars.

    A dataclass becomes a table of its fields (a union member's ``kind``
    first), leaving out ``None`` and empty tuples; tuples become lists.
    """
    if dataclasses.is_dataclass(value):
        kind = getattr(type(value), "kind", None)  # a union member's tag
        data: dict = {} if kind is None else {"kind": kind}
        for f in dataclasses.fields(value):
            item = encode(getattr(value, f.name))
            if item is not None and item != []:
                data[f.name] = item
        return data
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    return value


def decode(tp: object, data: object, path: str) -> object:
    """Build a value of type ``tp`` from plain ``data``.

    Wrong types, unknown keys and missing required fields raise
    :class:`SpecValidationError` naming the value's dotted ``path``; a
    dataclass's own ``ConfigurationError`` gets its table's path
    prepended (``scenario.controller.solver: change_penalty_mhz ...``).
    """
    if tp == Sample:
        return math.nan if data is None else _decode_scalar(float, data, path)
    origin = typing.get_origin(tp)
    if origin is Union:
        return _decode_union(typing.get_args(tp), data, path)
    if origin is Literal:
        options = typing.get_args(tp)
        if data not in options:
            raise SpecValidationError(
                f"{path}: expected one of {', '.join(map(repr, options))}, "
                f"got {data!r}"
            )
        return data
    if origin is tuple:
        if isinstance(data, (str, bytes, Mapping)) or not isinstance(data, Sequence):
            raise SpecValidationError(
                f"{path}: expected a list, got {type(data).__name__}"
            )
        items, args = data, typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(items)
        elif len(items) != len(args):
            raise SpecValidationError(
                f"{path}: expected a list of {len(args)} items, got {len(items)}"
            )
        return tuple(
            decode(arg, item, f"{path}[{i}]")
            for i, (arg, item) in enumerate(zip(args, items))
        )
    if origin is dict:
        _, value_tp = typing.get_args(tp)
        return {
            key: decode(value_tp, item, f"{path}.{key}")
            for key, item in _as_table(data, path).items()
        }
    if dataclasses.is_dataclass(tp):
        return _decode_dataclass(tp, data, path)
    if tp in _SCALARS:
        value = _decode_scalar(tp, data, path)
        if tp is float and not math.isfinite(value):
            raise SpecValidationError(f"{path}: must be finite, got {value}")
        return value
    raise TypeError(f"{path}: no codec for type {tp!r}")


def _decode_scalar(tp: type, data: object, path: str) -> object:
    # bool is an int subclass: a bool is only ever a bool.
    is_bool = isinstance(data, bool)
    allowed = (int, float) if tp is float else tp
    if is_bool is not (tp is bool) or not isinstance(data, allowed):
        raise SpecValidationError(
            f"{path}: expected {_SCALARS[tp]}, got {type(data).__name__}"
        )
    return float(data) if tp is float else data


def dumps_json(data: object) -> str:
    """``data`` as strict (RFC 8259) JSON, indent 2; non-finite floats
    become ``null``."""

    def strict(value: object) -> object:
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, dict):
            return {key: strict(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [strict(item) for item in value]
        return value

    return json.dumps(strict(data), indent=2, allow_nan=False)


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> dict:
    """``field name -> (type hint, required)`` of a dataclass."""
    hints = typing.get_type_hints(cls, include_extras=True)
    missing = dataclasses.MISSING
    return {
        f.name: (hints[f.name], f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(cls)
    }


def _as_table(data: object, path: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise SpecValidationError(
            f"{path}: expected a table/object, got {type(data).__name__}"
        )
    return data


def _decode_dataclass(cls: type, data: object, path: str) -> object:
    table = _as_table(data, path)
    fields = _field_types(cls)
    unknown = sorted(key for key in table if key not in fields)
    if unknown:
        raise SpecValidationError(
            f"{path}.{unknown[0]}: unknown field "
            f"(known: {', '.join(fields) or 'none'})"
        )
    kwargs = {}
    for name, (tp, required) in fields.items():
        if name in table:
            kwargs[name] = decode(tp, table[name], f"{path}.{name}")
        elif required:
            raise SpecValidationError(f"{path}.{name}: required field is missing")
    try:
        return cls(**kwargs)
    except SpecValidationError:
        raise  # spec classes name their own fields
    except ConfigurationError as exc:
        raise SpecValidationError(f"{path}: {exc}") from None


def _decode_union(options: tuple, data: object, path: str) -> object:
    if data is None and type(None) in options:
        return None
    options = tuple(option for option in options if option is not type(None))
    if len(options) == 1:
        return decode(options[0], data, path)
    kinds = {getattr(option, "kind", None): option for option in options}
    if None not in kinds:
        table = _as_table(data, path)
        if "kind" not in table:
            raise SpecValidationError(f"{path}.kind: required field is missing")
        kind = table["kind"]
        if not isinstance(kind, str) or kind not in kinds:
            raise SpecValidationError(
                f"{path}.kind: unknown kind {kind!r} "
                f"(known: {', '.join(sorted(kinds))})"
            )
        fields = {key: value for key, value in table.items() if key != "kind"}
        return _decode_dataclass(kinds[kind], fields, path)
    # An untagged union of a scalar and a list: the data's shape decides.
    is_list = isinstance(data, (list, tuple))
    shaped = [o for o in options if (typing.get_origin(o) is tuple) is is_list]
    return decode((shaped or options)[0], data, path)
