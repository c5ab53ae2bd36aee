"""Config records: one table of their fields and one strict checker.

``RECORDS`` gives the fields of every config record (the top level, its
``malliavin`` block, each body kind, each functional type): a JSON type, a
default (``REQUIRED`` if none) and a range.  Config parsing,
``body_from_spec`` and ``build_evaluators`` all call :func:`check_record`;
rules that tie fields together, positive intensities and ``n_reps`` >= 2
(whose errors keep their paths) and a body's own ranges (checked by its
constructor) stay with the code that reads the record.
"""
from __future__ import annotations

import math
import numbers
from typing import NamedTuple

__all__ = ["ConfigError", "REQUIRED", "Field", "RECORDS", "check_record"]


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")


REQUIRED = "required"


class Field(NamedTuple):
    """``type`` is a JSON type: int, float, string, bool, object, null,
    ``list of`` one of these, or alternatives joined by ``or``.  ``range``
    is "positive", ">= k" (a note may follow) or choices "'a' or 'b'"; it
    applies to each entry of a list."""

    type: str
    default: object = REQUIRED
    range: str = ""


_BODY = {"kind": Field("string"), "dim": Field("int")}
_CENTER = Field("list of float or null", None)
_TYPE = {"type": Field("string")}
_INDEX = {**_TYPE, "j": Field("int")}  # its range, 0..d or 0..d-1, needs d

RECORDS = {
    "config": {
        "name": Field("string", "experiment"),
        "body": Field("object"),
        "t_grid": Field("list of float"),
        "n_reps": Field("int or list of int"),
        "functionals": Field("list of object"),
        "mode": Field("string", "exact", "'exact' or 'mc'"),
        "n_dirs": Field("int", 4096),
        "seed": Field("int", 0, ">= 0"),
        "workers": Field("int", 1, ">= 1"),
        "malliavin": Field("object or null", None),
        "outputs": Field("string or null", None),
        "allow_nonsmooth": Field("bool", False),
        "allow_non_clt": Field("bool", False),
    },
    "malliavin": {
        "t": Field("float"),
        "functional": Field("string", "V_d"),
        "n_outer": Field("int", 2000, ">= 2"),
        "n_inner": Field("int", 8, ">= 4 (disjoint draw groups)"),
        "sampling": Field("string", "boundary_shell",
                          "'plain' or 'boundary_shell'"),
        "c": Field("float", 2.0, "positive"),
        "multivariate": Field("bool", False),
    },
    "body": {
        "ball": {**_BODY, "radius": Field("float", 1.0), "center": _CENTER},
        "ellipsoid": {**_BODY, "semi_axes": Field("list of float"),
                      "center": _CENTER},
        "cube": {**_BODY, "side": Field("float", 1.0)},
    },
    "functionals": {
        "intrinsic": _INDEX, "f": _INDEX, "wills": _TYPE, "oracle": _TYPE,
        "valuation": {**_TYPE, "label": Field("string"),
                      "coeffs": Field("list of float")},
        "multivariate": _TYPE,
    },
}

_INSTANCES = {"string": str, "bool": bool, "object": dict, "null": type(None)}


def _read(kind: str, value):
    """``value`` as the JSON type ``kind``: an int is an int or an integral
    float, a float any finite number, and neither is a bool."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if kind == "int" and number and (isinstance(value, numbers.Integral)
                                     or float(value).is_integer()):
        return int(value)
    if kind == "float" and number and math.isfinite(value):
        return float(value)
    if isinstance(value, _INSTANCES.get(kind, ())):
        return value
    raise TypeError(kind)


def _in_range(value, rule: str) -> bool:
    if rule == "positive":
        return value > 0
    if rule.startswith(">="):
        return value >= float(rule.split()[1])
    return value in [choice.strip("'") for choice in rule.split(" or ")]


def _check_value(field: Field, value, path: str):
    for kind in field.type.split(" or "):
        if kind.startswith("list of ") and isinstance(value, list):
            entry = field._replace(type=kind[len("list of "):])
            return [_check_value(entry, v, f"{path}[{i}]")
                    for i, v in enumerate(value)]
        try:
            got = _read(kind, value)
        except (TypeError, OverflowError):  # an int too large for a float
            continue
        if field.range and not _in_range(got, field.range):
            raise ConfigError(path, f"must be {field.range}")
        return got
    if field.type.startswith("object"):
        raise ConfigError(path, f"must be a JSON object, not {value!r}")
    expected = "true or false" if field.type == "bool" else field.type
    raise ConfigError(path, f"expected {expected}, not {value!r}")


def check_record(record, fields: dict[str, Field], where: str,
                 at: str | None = None) -> dict:
    """``record``'s values, defaults filled in, once every key is one of
    ``fields`` and every value has its field's type and range.  A bad value
    is an error at ``where.key``; so is a bad key set, except that a body or
    functional reports it at ``at``, naming its kind (its first field)."""
    if not isinstance(record, dict):
        raise ConfigError(where or "config", f"must be a JSON object, "
                                             f"not {record!r}")

    def path(key):
        return f"{where}.{key}" if where else key

    first = next(iter(fields))
    kind = f"{first} {record.get(first)!r}"

    def fail(key, plain, kinded):
        if at is None:
            raise ConfigError(path(key), plain)
        raise ConfigError(at, ("" if at == where else f"{where}: ") + kinded)

    known = ", ".join(fields)
    for key in record:
        if key not in fields:
            fail(key, f"unknown key (known: {known})",
                 f"unknown key {key!r} for {kind} (known: {known})")
    out = {}
    for key, field in fields.items():
        if key in record:
            out[key] = _check_value(field, record[key], path(key))
        elif field.default is REQUIRED:
            fail(key, "required key is missing", f"{kind} needs {key!r}")
        else:
            out[key] = field.default
    return out
