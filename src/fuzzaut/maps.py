"""Fuzzy maps and relations between finite groups, with sup composition.

A fuzzy map is a grade matrix over domain x codomain where every domain
element has exactly one grade-1 entry; the position of that entry is the
element's fuzzy image and the vector of fuzzy images is the map's skeleton.
Two maps are equivalent (``equiv``) when their skeletons agree; grades below
1 are never compared by the equivalence.

``compose`` is the general sup composition of relations and the oracle for
maps.  When g is a map, row z of g has its only grade-1 entry at
``g.images[z]``, so row z of f.g is row ``g.images[z]`` of f and the composite's
skeleton is ``f.images[g.images[z]]``.  ``compose_maps`` builds the composite
of two maps from this identity, skeleton first, without scanning a cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import FuzzautError
from .grades import GRADE_ONE, GRADE_ZERO, grade
from .groups import FiniteGroup


class MapError(FuzzautError):
    pass


class ShapeMismatch(MapError):
    pass


class NoUnitEntry(MapError):
    pass


class MultipleUnitEntries(MapError):
    pass


class NotBijective(MapError):
    pass


@dataclass(frozen=True, repr=False)
class FuzzyRelation:
    """Grade matrix over domain x codomain; shape is the only invariant."""

    domain: FiniteGroup
    codomain: FiniteGroup
    grades: tuple[tuple[Fraction, ...], ...]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.domain.name} -> {self.codomain.name})"


@dataclass(frozen=True, repr=False)
class FuzzyMap(FuzzyRelation):
    """Relation with a unique unit entry per row; ``images`` is the skeleton."""

    images: tuple[int, ...]


def _normalize_grades(domain, codomain, rows) -> tuple[tuple[Fraction, ...], ...]:
    out = tuple(tuple(grade(v) for v in row) for row in rows)
    if len(out) != domain.order or any(len(row) != codomain.order for row in out):
        raise ShapeMismatch(
            f"need a {domain.order}x{codomain.order} matrix for {domain.name} -> {codomain.name}"
        )
    return out


def fuzzy_relation(domain: FiniteGroup, codomain: FiniteGroup, rows) -> FuzzyRelation:
    return FuzzyRelation(domain, codomain, _normalize_grades(domain, codomain, rows))


def relation_images(rel: FuzzyRelation) -> tuple[int, ...]:
    """Unit-entry positions per row; raises if any row breaks the map rule."""
    images = []
    for x, row in enumerate(rel.grades):
        units = [y for y, v in enumerate(row) if v == GRADE_ONE]
        if not units:
            raise NoUnitEntry(f"row {x} has no grade-1 entry")
        if len(units) > 1:
            raise MultipleUnitEntries(f"row {x} has grade-1 entries at {units}")
        images.append(units[0])
    return tuple(images)


def make_fuzzy_map(domain: FiniteGroup, codomain: FiniteGroup, rows) -> FuzzyMap:
    grades = _normalize_grades(domain, codomain, rows)
    images = relation_images(FuzzyRelation(domain, codomain, grades))
    return FuzzyMap(domain, codomain, grades, images)


def fuzzy_image(f: FuzzyMap, x: int) -> int:
    return f.images[x]


def skeleton(f: FuzzyMap) -> tuple[int, ...]:
    return f.images


def _check_composable(f: FuzzyRelation, g: FuzzyRelation) -> None:
    if g.codomain != f.domain:
        raise ShapeMismatch(
            f"cannot compose {f.domain.name}->{f.codomain.name} after {g.domain.name}->{g.codomain.name}"
        )


def compose(f: FuzzyRelation, g: FuzzyRelation) -> FuzzyRelation:
    """Sup composition f.g: feed g's output into f (g acts first).

    (f.g)(z, y) is the sup of f(a, y) over the a with g(z, a) = 1, and 0 when
    no such a exists.
    """
    _check_composable(f, g)
    m = f.codomain.order
    fg = f.grades
    out = []
    for row in g.grades:
        units = [a for a, v in enumerate(row) if v == GRADE_ONE]
        if not units:
            out.append((GRADE_ZERO,) * m)
        elif len(units) == 1:
            out.append(fg[units[0]])
        else:
            out.append(tuple(max(fg[a][y] for a in units) for y in range(m)))
    return FuzzyRelation(g.domain, f.codomain, tuple(out))


def compose_maps(f: FuzzyMap, g: FuzzyMap) -> FuzzyMap:
    """``compose`` for two maps: reindex f's rows through g's skeleton."""
    _check_composable(f, g)
    return FuzzyMap(
        g.domain,
        f.codomain,
        tuple(f.grades[a] for a in g.images),
        tuple(f.images[a] for a in g.images),
    )


def is_one_one(f: FuzzyMap) -> bool:
    return len(set(f.images)) == len(f.images)


def is_onto(f: FuzzyMap) -> bool:
    return set(f.images) == set(range(f.codomain.order))


def _check_same_shape(f: FuzzyRelation, g: FuzzyRelation) -> None:
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ShapeMismatch("maps live over different domain/codomain pairs")


def equiv(f: FuzzyMap, g: FuzzyMap) -> bool:
    """Fuzzy-image equality; grades off the unit entries are not compared."""
    _check_same_shape(f, g)
    return f.images == g.images


def pointwise_equal(f: FuzzyRelation, g: FuzzyRelation) -> bool:
    """Exact matrix equality, strictly stronger than ``equiv``."""
    _check_same_shape(f, g)
    return f.grades == g.grades


def inverse_map(f: FuzzyMap) -> FuzzyMap:
    """Transpose of a bijective map.

    Column y of f has its only grade-1 entry in row f^-1(y), so the
    transpose is a map whose skeleton is the inverse permutation of f's.
    """
    if not (is_one_one(f) and is_onto(f)):
        raise NotBijective(f"{f!r} is not one-one and onto")
    n = f.domain.order
    transposed = tuple(tuple(f.grades[x][y] for x in range(n)) for y in range(f.codomain.order))
    images = [0] * n
    for x, y in enumerate(f.images):
        images[y] = x
    return FuzzyMap(f.codomain, f.domain, transposed, tuple(images))


def crisp_map(domain: FiniteGroup, codomain: FiniteGroup, mapping: Sequence[int]) -> FuzzyMap:
    """Indicator matrix of a crisp function: grade 1 at (x, mapping[x]), else 0."""
    if len(mapping) != domain.order:
        raise ShapeMismatch(f"mapping length {len(mapping)} != order {domain.order}")
    rows = []
    for x in domain.elements:
        y = mapping[x]
        if not 0 <= y < codomain.order:
            raise ShapeMismatch(f"image {y} outside the codomain")
        rows.append(tuple(GRADE_ONE if c == y else GRADE_ZERO for c in codomain.elements))
    return FuzzyMap(domain, codomain, tuple(rows), tuple(mapping))


def identity_map(group: FiniteGroup) -> FuzzyMap:
    return crisp_map(group, group, tuple(group.elements))
