"""JSON file formats for groups and membership functions.

Grades travel as strings indexed by the owning group's element order.  The
writers give the canonical form ("1", "0", "p/q" in lowest terms), so files
round-trip bit-exactly; the loader accepts any string that ``parse_grade``
does, such as "2/4", "0.5" or "5e-1".  The loaders keep nothing: each call
reads, parses and builds anew, and a campaign resolves each of its file
inputs once.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import FuzzautError
from .grades import format_grade, parse_grade
from .groups import MAX_ORDER, FiniteGroup, make_group
from .subsets import FuzzySubset, fuzzy_subset


class FileFormatError(FuzzautError):
    pass


def _is(value, kind: type) -> bool:
    """JSON type test: true and false are not integers."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _require(obj: dict, key: str, kind: type):
    if not isinstance(obj, dict) or key not in obj:
        raise FileFormatError(f"missing key {key!r}")
    value = obj[key]
    if not _is(value, kind):
        raise FileFormatError(f"key {key!r} must be {kind.__name__}")
    return value


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def group_from_json(obj: dict) -> FiniteGroup:
    name = _require(obj, "name", str)
    order = _require(obj, "order", int)
    if order > MAX_ORDER:
        raise FileFormatError(f"declared order {order} exceeds the bound {MAX_ORDER}")
    table = _require(obj, "table", list)
    if len(table) != order:
        raise FileFormatError(f"declared order {order} but the table has {len(table)} rows")
    for r, row in enumerate(table):
        if not _is(row, list):
            raise FileFormatError(f"table row {r} must be a list")
        for c, v in enumerate(row):
            if not _is(v, int):
                raise FileFormatError(
                    f"entry at row {r}, column {c} is {json.dumps(v)}, not an integer"
                )
    return make_group(table, name=name)


def mu_to_json(mu: FuzzySubset) -> dict:
    return {
        "group": mu.group.name,
        "grades": [format_grade(g) for g in mu.grades],
    }


def mu_from_json(obj: dict, group: FiniteGroup) -> FuzzySubset:
    """Load a grade vector over ``group``, which must carry the name the file gives."""
    token = _require(obj, "group", str)
    grades = _require(obj, "grades", list)
    if token != group.name:
        raise FileFormatError(f"grades are for {token!r}, not {group.name!r}")
    return fuzzy_subset(group, [parse_grade(s) for s in grades])


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def _parse_json(path, text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # the parser recurses once per nested list or object
        raise FileFormatError(f"{path} nests too deeply to parse") from exc


def load_group(path) -> FiniteGroup:
    """The group in a JSON file."""
    return group_from_json(_parse_json(path, _read_text(path)))


def load_mu(path, group: FiniteGroup) -> FuzzySubset:
    """The mu over ``group`` in a JSON file."""
    return mu_from_json(_parse_json(path, _read_text(path)), group)


def save(path, obj: dict) -> None:
    try:
        Path(path).write_text(dumps(obj), encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc
