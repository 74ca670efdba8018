"""The JSON files of the pipeline. Each file it reads is a dataclass, read
strictly by ``load``; each file it writes is formatted by ``dumps``. A field's
JSON key is its name unless its metadata gives a ``"key"``. This module
imports no other vulnaudit module, so that every module can use it.
"""

from __future__ import annotations

import json
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from pathlib import Path


class ConfigError(ValueError):
    """Bad or missing configuration/input."""


def convert(tp, value, where: str):
    """``value`` as annotated type ``tp``: a list element by element, a
    ``dict[str, V]`` from an object value by value, ``X | None`` passing
    None through, dataclasses through ``from_doc``, and scalars strictly: an
    ``int`` takes only a JSON integer, a ``float`` an integer or a decimal
    that is finite as a float (not NaN, an infinity or an integer beyond the
    float range), a ``str`` only a string, a str-valued ``Enum`` only one of
    its values, and only a ``bool`` takes ``true``/``false``. A value of
    another type is a ConfigError naming ``where``; nothing is truncated or
    stringified."""
    if is_dataclass(tp):
        return from_doc(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        inner = [a for a in args if a is not type(None)]
        return None if value is None else convert(inner[0], value, where)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return [convert(args[0], v, where) for v in value]
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object, got {value!r}")
        return {k: convert(args[1], v, where) for k, v in value.items()}
    accepted = (int, float) if tp is float else (str,) if issubclass(tp, Enum) else (tp,)
    if isinstance(value, bool) is not (tp is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where}: expected {tp.__name__}, got {value!r}")
    if tp is float and not abs(value) <= sys.float_info.max:  # NaN fails too
        raise ConfigError(f"{where}: expected a finite number")
    if issubclass(tp, Enum) and value not in [m.value for m in tp]:
        raise ConfigError(f"{where}: expected one of {[m.value for m in tp]}, got {value!r}")
    return tp(value)


def from_doc(cls, doc, where: str):
    """Build dataclass ``cls`` from the JSON object ``doc`` using the class's
    own fields: a present key is converted to its field's type, an absent one
    takes the field's default. A non-object document, an unknown key, a
    missing required key (one whose field has no default) or a bad value is
    a ConfigError naming ``where``; keys are named as the file spells them."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    keyed = {f.metadata.get("key", f.name): f for f in fields(cls)}
    unknown = sorted(doc.keys() - keyed.keys())
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    missing = [key for key, f in keyed.items() if key not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where}: missing key(s) {', '.join(map(repr, missing))}")
    hints = typing.get_type_hints(cls)
    values = {keyed[k].name: convert(hints[keyed[k].name], v, f"{where}, section {k!r}")
              for k, v in doc.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:  # a rule of the class
        raise ConfigError(f"{where}: bad value: {exc}") from exc


def read_json(path: str | Path):
    """The JSON document in the file ``path``. A file that is not UTF-8 JSON
    is a ConfigError naming ``path``; a missing one raises FileNotFoundError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{path}: not a JSON file: {exc}") from exc


def load(cls, path: str | Path):
    """Dataclass ``cls`` read from the JSON file ``path`` by ``from_doc``."""
    return from_doc(cls, read_json(path), str(path))


def _fields(value) -> dict:
    """A dataclass instance as a JSON object: each field under its key."""
    return {f.metadata.get("key", f.name): getattr(value, f.name) for f in fields(value)}


def dumps(value) -> str:
    """The text of every JSON file the pipeline writes: ``value``, with its
    dataclasses as objects, indented by 2, keys sorted, and a final newline."""
    return json.dumps(value, indent=2, sort_keys=True, default=_fields) + "\n"
