"""JSON loading and field checks shared by the four input formats.

Track, config, scenario and camera-path documents are all read with
:func:`load` and checked with :func:`check`, :func:`fields`,
:func:`required` and :func:`keys`.  Numbers follow one rule in every
file: a number field takes a finite JSON number, integers included, and
an integer field a JSON integer; booleans, strings, NaN, ±Infinity and
integers beyond the float range are rejected.

Every check raises ValueError whose message names the field by its path
in the document, such as ``objects[0].samples[3].x``.  The path is built
only when a check fails.  Each parser converts the ValueError into its
own error class.  This module imports nothing from the package, so every
parser can use it, the track parser at the bottom of the import graph
included.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import Mapping

# kind: (the Python types JSON gives it, what error messages call it)
_KINDS = {
    "bool": (bool, "a boolean"),
    "int": (int, "an integer"),
    "float": ((int, float), "a finite number"),
    "str": (str, "a string"),
    "object": (dict, "a JSON object"),
    "rows": (list, "a list of JSON objects"),
}
_MAX = sys.float_info.max


def load(document: bytes | str):
    """`document` parsed as JSON text.  Bytes must be UTF-8: UTF-16,
    UTF-32 and a byte order mark are rejected, as they are in files."""
    try:
        if not isinstance(document, str):
            document = str(document, "utf-8")
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise ValueError("arrays or objects nested too deeply") from None
    except ValueError as exc:  # an integer longer than int() may convert
        raise ValueError(f"unreadable number: {exc}") from exc


def _name(key: str, where: str) -> str:
    return f"{where}.{key}" if where else key


def check(value, kind: str, key: str, where: str = ""):
    """`value` as a field of kind "bool", "int", "float", "str", "object"
    or "rows" (a list of JSON objects), named `key` inside `where`.
    Floats are returned as float, integers included."""
    if kind == "float":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if -_MAX <= value <= _MAX:  # NaN fails the comparison too
                return float(value)
    elif kind == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif isinstance(value, _KINDS[kind][0]):
        if kind != "rows" or all(isinstance(row, dict) for row in value):
            return value
    got = f", got {value!r}" if kind not in ("object", "rows") else ""
    raise ValueError(f"{_name(key, where)} must be {_KINDS[kind][1]}{got}")


def _missing(key: str, where: str) -> ValueError:
    return ValueError(f"missing required field {_name(key, where)!r}")


def required(data: dict, kinds: Mapping[str, str], where: str = "") -> list:
    """The values of the fields that `kinds` names, in its order, each
    checked against its kind.  Other keys of `data` are ignored."""
    try:
        return [check(data[key], kind, key, where) for key, kind in kinds.items()]
    except KeyError as exc:
        raise _missing(exc.args[0], where) from None


def fields(cls, data: dict, where: str = "") -> dict:
    """The fields of dataclass `cls` given in `data`, each checked against
    its declared type ("bool", "int", "float" or "str").  Every field
    without a default must be given; `keys` checks for unknown ones."""
    kinds = {}
    for f in dataclasses.fields(cls):
        kinds[f.name] = f.type
        no_default = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if no_default and f.name not in data:
            raise _missing(f.name, where)
    return {k: check(v, kinds[k], k, where) for k, v in data.items()}


def keys(data: dict, allowed, where: str) -> None:
    """Reject keys of `data` outside `allowed`."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
