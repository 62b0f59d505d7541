"""JSON file formats for groups and membership functions.

Grades travel as canonical rational strings ("1", "0", "p/q"), indexed by the
owning group's element order, so files round-trip bit-exactly through the
loader.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .errors import FuzzautError
from .grades import format_grade, parse_grade
from .groups import MAX_ORDER, FiniteGroup, builtin_group, make_group
from .subsets import FuzzySubset, fuzzy_subset


_TEXTS_KEPT = 16  # file texts whose loaded group or mu is kept, per loader


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


def group_to_json(group: FiniteGroup) -> dict:
    return {
        "name": group.name,
        "order": group.order,
        "table": [list(row) for row in group.table],
    }


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


def mu_from_json(obj: dict, group: Optional[FiniteGroup] = None) -> FuzzySubset:
    """Load a grade vector; the group comes from the caller, which must carry
    the name the file gives, or from the builtin group of that token."""
    token = _require(obj, "group", str)
    grades = _require(obj, "grades", list)
    if group is None:
        group = builtin_group(token)
    elif token != group.name:
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


def load_group(path) -> FiniteGroup:
    """The group in a JSON file; the group built from one file text is kept."""
    return _group_from_text(path, _read_text(path))


def load_mu(path, group: Optional[FiniteGroup] = None) -> FuzzySubset:
    """The mu in a JSON file, kept per file text and group as ``load_group`` keeps groups."""
    return _mu_from_text(path, _read_text(path), group)


@lru_cache(maxsize=_TEXTS_KEPT)
def _group_from_text(path, text: str) -> FiniteGroup:
    return group_from_json(_parse_json(path, text))


@lru_cache(maxsize=_TEXTS_KEPT)
def _mu_from_text(path, text: str, group: Optional[FiniteGroup]) -> FuzzySubset:
    return mu_from_json(_parse_json(path, text), group)


def save(path, obj: dict) -> None:
    try:
        Path(path).write_text(dumps(obj), encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot write {path}: {exc}") from exc
