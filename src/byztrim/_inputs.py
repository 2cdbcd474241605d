"""The input rules every boundary of the package shares, in one module
that imports none of the package's own, so every module can use it."""

from __future__ import annotations

import re
import sys
from collections import Counter

# NaN, the infinities and integers beyond the float range all fail
# `abs(value) <= FLOAT_MAX` (int-to-float comparison is exact and cannot
# overflow, where math.isfinite(10**400) raises OverflowError).
FLOAT_MAX = sys.float_info.max


def is_int(value) -> bool:
    # bool is an int subclass, but true/false are not node ids or counts.
    return isinstance(value, int) and not isinstance(value, bool)


def int_value(value, name: str, minimum: int | None = None) -> int:
    """`value`, if it is an integer (not a boolean) of at least `minimum`."""
    if not is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def real_value(value, name: str) -> float:
    """`value` as a float, if it is a finite int or float (not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= FLOAT_MAX:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def node_ids(value, name: str, n: int) -> tuple[int, ...]:
    """A list of node ids, each in range(n)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of node ids, got {value!r}")
    nodes = tuple(int_value(v, f"{name} entry") for v in value)
    for v in nodes:
        if not 0 <= v < n:
            raise ValueError(f"{name} entry {v} is not a node of the graph")
    return nodes


def json_object(value, name: str, fields: frozenset[str], required: tuple[str, ...] = ()) -> dict:
    """`value`, if it is a dict with no key outside `fields` and every key
    of `required` present and not None (JSON null)."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - fields)
    if unknown:
        raise ValueError(f"{name} has unknown field(s) {', '.join(map(repr, unknown))}")
    missing = [key for key in required if value.get(key) is None]
    if missing:
        raise ValueError(f"{name} is missing {', '.join(map(repr, missing))}")
    return value


def json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def json_number(value):
    """A JSON integer read where a real belongs, as a float; anything else,
    an integer beyond the float range included, is left for real_value."""
    return float(value) if type(value) is int and abs(value) <= FLOAT_MAX else value


INT, REAL, NODES = "int", "real", "nodes"


def spec_params(kind, params, what: str, kinds: dict[str, tuple], n: int) -> dict:
    """Check a spec against its kind's entry in `kinds`, which starts with
    ({param: INT, REAL or NODES}, required params), and return its params
    converted: integers, finite floats and tuples of node ids of range(n).
    Raises ValueError on a kind that is not a known string, params that are
    not a dict, an unknown or missing param, a value of the wrong type, or
    a node listed twice across the node-list params (partition sides are
    disjoint)."""
    if not isinstance(kind, str):
        raise ValueError(f"{what} kind must be a string, got {kind!r}")
    if kind not in kinds:
        raise ValueError(f"unknown {what} {kind!r}; known: {', '.join(kinds)}")
    schema, required = kinds[kind][:2]
    if not isinstance(params, dict):
        raise ValueError(f"{what} params must be a JSON object, got {params!r}")
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ValueError(f"{what} {kind!r} has unknown param(s) {', '.join(map(repr, unknown))}")
    missing = [name for name in required if name not in params]
    if missing:
        raise ValueError(f"{what} {kind!r} is missing param(s) {', '.join(map(repr, missing))}")
    checked = {}
    for name, value in params.items():
        label, rule = f"{what} {kind!r} param {name!r}", schema[name]
        checked[name] = (
            int_value(value, label) if rule == INT
            else real_value(value, label) if rule == REAL
            else node_ids(value, label, n)
        )
    listed = Counter(v for name, nodes in checked.items() if schema[name] == NODES for v in nodes)
    twice = sorted(v for v, count in listed.items() if count > 1)
    if twice:
        raise ValueError(f"{what} {kind!r} lists node(s) {', '.join(map(str, twice))} more than once")
    return checked


# Command-line numbers are ASCII (re.ASCII makes \d mean 0-9) with no sign
# but a leading '-', no digit-group underscore and no surrounding
# whitespace, all of which int() and float() would accept.  argparse names
# a type function in its error ("invalid integer value"), hence the names.
_INTEGER = re.compile(r"-?\d+", re.ASCII)
_DECIMAL = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", re.ASCII)


def integer(text: str) -> int:
    """The integer `text` writes as ASCII digits with an optional leading '-'."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def decimal(text: str) -> float:
    """The finite number `text` writes as an ASCII decimal (optional
    leading '-', optional exponent)."""
    if not _DECIMAL.fullmatch(text) or not abs(float(text)) <= FLOAT_MAX:
        raise ValueError(f"not a finite decimal: {text!r}")
    return float(text)
