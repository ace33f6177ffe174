"""The JSON boundary: reading inputs, building config dataclasses, writing artifacts.

load_json rejects NaN, Infinity and numbers that overflow a float. from_dict
builds a config dataclass from its own fields and annotations, rejecting
unknown fields, missing required fields and wrong types as ``what.field``.
JSON integers widen to float; int fields reject booleans and non-integral
numbers; strings are never parsed as numbers. Artifacts go through
atomic_path, and JSON ones through dumps, which refuses non-finite numbers.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from functools import cache
from pathlib import Path

from .errors import ValidationError


def load_json(path, what: str):
    """Parse the JSON file at path; `what` names the file in error messages."""

    def reject_constant(token):
        raise ValidationError(f"{what} file {path}: {token} is not allowed; numbers must be finite")

    def parse_float(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValidationError(f"{what} file {path}: {text} overflows a float")
        return value

    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from None
    try:
        return json.loads(text, parse_constant=reject_constant, parse_float=parse_float)
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(f"{what} file {path} is not valid JSON: {exc}") from None


def _show(value) -> str:
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:37] + "..."


def _wrong(where: str, expected: str, value) -> ValidationError:
    return ValidationError(f"{where} must be {expected}, got {_show(value)}")


@cache
def _schema(cls) -> tuple[dict, tuple]:
    hints = typing.get_type_hints(cls)
    init = [f for f in fields(cls) if f.init]
    required = tuple(f.name for f in init if f.default is MISSING and f.default_factory is MISSING)
    return {f.name: hints[f.name] for f in init}, required


def json_object(doc, what: str) -> dict:
    """doc itself if it is a JSON object, else a ValidationError naming `what`."""
    if not isinstance(doc, dict):
        raise _wrong(what, "a JSON object", doc)
    return doc


def from_dict(cls, doc, what: str, **fixed):
    """Build the dataclass cls from the JSON object doc.

    `fixed` supplies fields that come from the caller rather than the file
    (a trained model, say); the document may not set them.
    """
    json_object(doc, what)
    hints, required = _schema(cls)
    allowed = hints.keys() - fixed.keys()
    if not doc.keys() <= allowed:
        unknown = ", ".join(f"{what}.{key}" for key in sorted(doc.keys() - allowed))
        raise ValidationError(f"unknown field {unknown}; allowed: {sorted(allowed)}")
    for name in required:
        if name not in doc and name not in fixed:
            raise ValidationError(f"{what}.{name} is required")
    values = {name: _coerce(hints[name], value, f"{what}.{name}") for name, value in doc.items()}
    return cls(**values, **fixed)


def tagged(doc, tag: str, classes: dict, what: str):
    """Split an object whose `tag` field picks one of `classes`; returns (class, other fields)."""
    rest = dict(json_object(doc, what))
    name = rest.pop(tag, None)
    cls = classes.get(name) if isinstance(name, str) else None
    if cls is None:
        raise _wrong(f"{what}.{tag}", f"one of {list(classes)}", name)
    return cls, rest


def _coerce(tp, value, where: str):
    if tp is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                raise _wrong(where, "a number in float range", value) from None
        raise _wrong(where, "a number", value)
    if tp is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise _wrong(where, "an integer", value)
    if tp is str or tp is bool or tp is dict:
        if isinstance(value, tp):
            return value
        raise _wrong(where, {str: "a string", bool: "true or false", dict: "a JSON object"}[tp], value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Literal:
        if any(value == a and type(value) is type(a) for a in args):
            return value
        raise _wrong(where, " or ".join(map(_show, args)), value)
    if origin in (typing.Union, types.UnionType):  # only `X | None`
        (arm,) = [a for a in args if a is not type(None)]
        return None if value is None else _coerce(arm, value, where)
    if origin is tuple:
        if not isinstance(value, list):
            raise _wrong(where, "an array", value)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise _wrong(where, f"an array of {len(args)} entries", value)
        return tuple(_coerce(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if is_dataclass(tp):
        return from_dict(tp, value, where)
    if isinstance(tp, type) and issubclass(tp, Enum):
        choices = [m.value for m in tp]
        if value not in choices:
            raise _wrong(where, f"one of {choices}", value)
        return tp(value)
    raise TypeError(f"{where}: unsupported annotation {tp!r}")


def dumps(doc, indent: int | None = None) -> str:
    """Serialize with sorted keys as strict JSON; a non-finite number is a ValidationError."""
    try:
        return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        # the documents are plain trees, so the only ValueError is a NaN or infinity
        raise ValidationError(f"result is not finite ({exc}); an input value is out of range") from None


@contextmanager
def atomic_path(path):
    """Yield a temp path beside `path`; it replaces `path` only if the block succeeds."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> None:
    with atomic_path(path) as tmp:
        Path(tmp).write_text(text, encoding="utf-8")


def write_json(path, doc) -> None:
    write_text(path, dumps(doc, indent=2) + "\n")
