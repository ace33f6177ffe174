"""The JSON boundary: reading inputs, building config dataclasses, writing artifacts.

load_json rejects NaN, Infinity, numbers that overflow a float and arrays or
objects nested deeper than the parser's recursion allows. from_dict
builds a config dataclass from its own fields and annotations, rejecting
unknown fields, missing required fields and wrong types as ``what.field``;
an error the dataclass itself raises is prefixed with ``what:``. JSON integers
widen to float; int fields reject booleans and non-integral numbers; strings
are never parsed as numbers. Besides scalars, Literal, ``X | None``, Enum and
nested dataclasses, a field may be a ``tuple``, ``list`` or ``dict[str, X]`` of
them or an ``Annotated[np.ndarray, dtype]`` (a float64 or intp vector). An array
field is checked in one pass; the element-wise path runs only to name a bad
entry. A tagged type ``Annotated[A | B, "tag"]`` is read as the arm whose ``tag``
class attribute the document's ``tag`` field names, as a fault injection by its
``kind`` and a ledger amount by its ``dist``.

Writing mirrors from_dict: plain turns a dataclass into an object of its
fields (tuples and lists become lists, numpy arrays their tolist()), and
dumps applies it to whatever json cannot encode itself, so an artifact
dataclass is written by its fields with no hand-written copy of them. Keys
are sorted and non-finite numbers refused. Artifacts go through atomic_path.
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

import numpy as np

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
    except RecursionError:
        raise ValidationError(f"{what} file {path} nests arrays or objects too deeply to read") from None


def _show(value) -> str:
    try:
        text = json.dumps(value, default=repr)
    except RecursionError:  # a value load_json could parse, but only just
        return "a value nested too deeply to show"
    return text if len(text) <= 40 else text[:37] + "..."


def _wrong(where: str, expected: str, value) -> ValidationError:
    return ValidationError(f"{where} must be {expected}, got {_show(value)}")


@cache
def _schema(cls) -> tuple[dict, tuple]:
    hints = typing.get_type_hints(cls, include_extras=True)
    init = [f for f in fields(cls) if f.init]
    required = tuple(f.name for f in init if f.default is MISSING and f.default_factory is MISSING)
    return {f.name: hints[f.name] for f in init}, required


def json_object(doc, what: str) -> dict:
    """doc itself if it is a JSON object, else a ValidationError naming `what`."""
    if not isinstance(doc, dict):
        raise _wrong(what, "a JSON object", doc)
    return doc


def _tag(tp) -> str | None:
    """The tag field of a tagged type Annotated[A | B, "tag"], else None."""
    args = typing.get_args(tp)
    return args[1] if typing.get_origin(tp) is typing.Annotated and isinstance(args[1], str) else None


def from_dict(cls, doc, what: str, **fixed):
    """Build the dataclass cls, or the arm of the tagged type cls that doc names, from the JSON object doc.

    `fixed` supplies fields that come from the caller rather than the file
    (a trained model, say): each goes to the class only if it declares it, and
    the document may not set it. Any other type is read as a field of that type.
    """
    tag = _tag(cls)
    if tag is None and not is_dataclass(cls):
        return _coerce(cls, doc, what)
    json_object(doc, what)
    if tag is not None:
        arms = {getattr(arm, tag): arm for arm in typing.get_args(typing.get_args(cls)[0])}
        doc = dict(doc)
        name = doc.pop(tag, None)
        cls = arms.get(name) if isinstance(name, str) else None
        if cls is None:
            raise _wrong(f"{what}.{tag}", f"one of {list(arms)}", name)
    hints, required = _schema(cls)
    fixed = {name: value for name, value in fixed.items() if name in hints}
    allowed = hints.keys() - fixed.keys()
    if not doc.keys() <= allowed:
        unknown = ", ".join(f"{what}.{key}" for key in sorted(doc.keys() - allowed))
        raise ValidationError(f"unknown field {unknown}; allowed: {sorted(allowed)}")
    for name in required:
        if name not in doc and name not in fixed:
            raise ValidationError(f"{what}.{name} is required")
    values = {name: _coerce(hints[name], value, f"{what}.{name}") for name, value in doc.items()}
    try:
        return cls(**values, **fixed)
    except ValidationError as exc:
        raise ValidationError(f"{what}: {exc}") from None


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
    if is_dataclass(tp) or _tag(tp) is not None:
        return from_dict(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Literal:
        if any(value == a and type(value) is type(a) for a in args):
            return value
        raise _wrong(where, " or ".join(map(_show, args)), value)
    if origin in (typing.Union, types.UnionType):  # only `X | None`
        (arm,) = [a for a in args if a is not type(None)]
        return None if value is None else _coerce(arm, value, where)
    if origin is dict:
        return {key: _coerce(args[1], v, f"{where}.{key}") for key, v in json_object(value, where).items()}
    if origin in (tuple, list, typing.Annotated) and not isinstance(value, list):
        raise _wrong(where, "an array", value)
    if origin is typing.Annotated:  # Annotated[np.ndarray, dtype]: a float64 or intp vector
        dtype = np.dtype(args[1])
        number = float if np.issubdtype(dtype, np.floating) else int
        if _numbers(number, value):
            try:
                return np.array(value, dtype=dtype)
            except OverflowError:
                pass  # the element-wise path below names an entry beyond float range
        try:
            return np.array(_coerce(list[number], value, where), dtype=dtype)
        except OverflowError:
            raise ValidationError(f"{where} holds an integer out of range") from None
    if origin is tuple and args[-1] is not Ellipsis:
        if len(value) != len(args):
            raise _wrong(where, f"an array of {len(args)} entries", value)
        return tuple(_coerce(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if origin in (tuple, list):
        if is_dataclass(args[0]) or _tag(args[0]) is not None:  # a non-object entry is named before any entry is read
            for i, v in enumerate(value):
                json_object(v, f"{where}[{i}]")
        return origin(_coerce(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(tp, type) and issubclass(tp, Enum):
        choices = [m.value for m in tp]
        if value not in choices:
            raise _wrong(where, f"one of {choices}", value)
        return tp(value)
    raise TypeError(f"{where}: unsupported annotation {tp!r}")


# the exact types of JSON numbers a float or an int field takes without conversion
_NUMBER_TYPES = {float: {int, float}, int: {int}}


def _numbers(tp, values: list) -> bool:
    """True when every entry of values already is a number of type tp, checked in one pass."""
    return tp in _NUMBER_TYPES and set(map(type, values)) <= _NUMBER_TYPES[tp]


def plain(value):
    """value as plain JSON data: a dataclass becomes an object of its fields,
    a tuple or list a list and an ndarray its tolist(), recursively."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if value is None or isinstance(value, (str, int, float)):
        return value
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dumps(doc, indent: int | None = None) -> str:
    """Serialize as strict JSON with sorted keys, dataclasses and arrays through
    plain; a non-finite number is a ValidationError."""
    try:
        return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False, default=plain)
    except ValueError as exc:
        # plain raises TypeError for what it cannot write, so the only ValueError is a NaN or infinity
        raise ValidationError(f"result is not finite ({exc}); an input value is out of range") from None


@contextmanager
def atomic_path(path):
    """Yield a temp path beside `path`; it replaces `path` only if the block succeeds."""
    path = Path(path)
    if path.is_dir():
        raise ValidationError(f"cannot write {path}: it is a directory")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file where a parent directory should be
        raise ValidationError(f"cannot write {path}: {exc}") from None
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
