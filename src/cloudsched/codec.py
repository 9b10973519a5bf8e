"""One JSON codec for the package's frozen dataclasses.

decode builds a dataclass from parsed JSON, reading the accepted keys, the
required fields and each leaf's type from the class itself, so a file format
is declared once, by the dataclass it fills. encode writes a dataclass back
as plain JSON. Every decode error is a ConfigurationError that names the
dotted path of the offending value, e.g. "workload file.vms[0].mips".
read_json reads a config or workload file for decode; its errors name the
file.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
import typing
from collections.abc import Mapping

import numpy as np

from .errors import ConfigurationError


_SCALARS = frozenset({type(None), bool, int, float, str})
_LEAVES = {float: ("a number", (int, float)), int: ("an integer", int), str: ("a string", str)}


def decode(cls, value, where: str):
    """Build `cls` from parsed JSON `value`, which sits at path `where`.

    `cls` is a dataclass or a field's type hint. A JSON int in a float field
    becomes a float; a bool is never a number. Errors the dataclass itself
    raises are re-raised with `where` in front.
    """
    if cls in _LEAVES:  # most values are leaves, so they are checked first
        kind, accepted = _LEAVES[cls]
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise ConfigurationError(f"{where} must be {kind}")
        if cls is float:
            value = float(value) if abs(value) <= sys.float_info.max else math.inf
            if not math.isfinite(value):  # JSON allows NaN, Infinity and huge ints
                raise ConfigurationError(f"{where} must be a finite number")
        return value
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if (dataclasses.is_dataclass(cls) or origin is Mapping) and not isinstance(value, Mapping):
        raise ConfigurationError(f"{where} must be a JSON object")
    if dataclasses.is_dataclass(cls):
        hints, required = _schema(cls)
        for key in value:
            if key not in hints:
                raise ConfigurationError(f"unknown key {key!r} in {where}")
        for name in required:
            if name not in value:
                raise ConfigurationError(f"{where}.{name} is required")
        kwargs = {k: decode(hints[k], v, f"{where}.{k}") for k, v in value.items()}
        try:
            return cls(**kwargs)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{where}: {exc}") from exc
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return decode(inner, value, where)
    if cls is np.ndarray:
        return np.array(decode(tuple[float, ...], value, where), dtype=float)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{where} must be a list")
        fixed = args[1:] != (...,)
        if fixed and len(value) != len(args):
            raise ConfigurationError(f"{where} must be a list of {len(args)} items")
        kinds = args if fixed else [args[0]] * len(value)
        return tuple(decode(k, v, f"{where}[{i}]") for i, (k, v) in enumerate(zip(kinds, value)))
    if origin is Mapping:
        return {k: decode(args[1], v, f"{where}.{k}") for k, v in value.items()}
    if cls is typing.Any:
        return value
    raise TypeError(f"no JSON decoding for {cls!r}")


def read_json(path: str, kind: str):
    """The parsed JSON of the file at path. A file that cannot be opened,
    is not UTF-8 or is not JSON is a ConfigurationError naming the kind of
    file and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {kind} file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"cannot read {kind} file {path}: not UTF-8 (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{kind} file {path} is not valid JSON: {exc}") from exc


@functools.cache
def _schema(cls) -> tuple[dict[str, object], tuple[str, ...]]:
    """A dataclass's field types by name, and its fields without a default."""
    fields = [f for f in dataclasses.fields(cls) if f.init]
    hints = typing.get_type_hints(cls)
    missing = dataclasses.MISSING
    required = [f.name for f in fields if f.default is missing and f.default_factory is missing]
    return {f.name: hints[f.name] for f in fields}, tuple(required)


def encode(obj):
    """Plain JSON for a dataclass: fields in declaration order, tuples and
    arrays as lists."""
    if type(obj) in _SCALARS:
        return obj
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {name: encode(getattr(obj, name)) for name in _schema(type(obj))[0]}
    return obj
