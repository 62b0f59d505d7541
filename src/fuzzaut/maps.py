"""Fuzzy maps and relations between finite groups, with sup composition.

A fuzzy map is a grade matrix over domain x codomain where every domain
element has exactly one grade-1 entry; the position of that entry is the
element's fuzzy image and the vector of fuzzy images is the map's skeleton.
Two maps are equivalent when their skeletons (``images``) agree; grades below
1 are never compared by the equivalence.

``compose`` is the general sup composition of relations and the oracle for
maps.  When g is a map, row z of g has its only grade-1 entry at
``g.images[z]``, so row z of f.g is row ``g.images[z]`` of f and the composite's
skeleton is ``f.images[g.images[z]]``.  ``compose_maps`` builds the composite
of two maps from this identity, skeleton first, without scanning a cell.

A map stores its cells once, as integers: ``encoding = (values, rank_rows)``,
where ``values`` is an increasing tuple of grades and cell (x, y) is
``values[rank_rows[x][y]]`` (``grades.rank_grades``).  ``grades``, the
``Fraction`` matrix, is a view derived from the encoding on first read, for
the edges: files, witnesses and the ``compose`` oracle.  The constructors:

* ``make_fuzzy_map`` ranks its cells, as does a ``FuzzyMap`` built directly
  from grades; ``crisp_map`` writes its 0/1 encoding down;
* ``indexed_map`` reads each cell's rank from one ranked grade vector, such
  as ``FuzzySubset.encoding``, so the maps built from one membership
  function share its value list and grade objects;
* ``ranked_map`` takes rank rows that are already built, as
  ``make_fuzzy_map``, ``indexed_map`` and ``FuzzySubset.f_e`` do, and finds
  the unit entries on the ranks; ``homs.lift_hom`` and the induced family
  reindex the rows and unit positions of f_e's one scan;
* ``compose_maps`` reindexes f's rank rows through g's skeleton, and
  ``inverse_map`` transposes them.

Between maps with equal value lists, cells are equal exactly when their
ranks are, because ``values`` is strictly increasing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Optional, Sequence

from .errors import FuzzautError, Record
from .grades import GRADE_ONE, GRADE_ZERO, grade, rank_grades
from .groups import FiniteGroup, picker


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


class FuzzyRelation(Record):
    """Grade matrix over domain x codomain; shape is the only invariant."""

    domain: FiniteGroup
    codomain: FiniteGroup
    grades: tuple[tuple[Fraction, ...], ...]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.domain.name} -> {self.codomain.name})"


Encoding = tuple[tuple[Fraction, ...], tuple[tuple[int, ...], ...]]


def _rank_cells(grades) -> Encoding:
    values, flat = rank_grades([v for row in grades for v in row])
    ranks = iter(flat)
    return values, tuple(tuple(islice(ranks, len(row))) for row in grades)


class FuzzyMap(FuzzyRelation):
    """Relation with a unique unit entry per row; ``images`` is the skeleton.

    The cells are stored once, in the attribute (not a field) ``encoding =
    (values, rank_rows)``; see the module docstring.  A constructor passes
    either ``grades``, which are ranked, or an ``encoding``; both or neither
    raise ``TypeError``.
    ``grades`` is derived on first read; equality and hashing compare it, so
    maps are equal when their grade matrices are, whatever their value lists.
    """

    images: tuple[int, ...]

    def __init__(self, domain, codomain, grades, images, encoding: Optional[Encoding] = None) -> None:
        if (grades is None) == (encoding is None):
            raise TypeError("FuzzyMap takes either grades or an encoding")
        self.__dict__.update(
            domain=domain, codomain=codomain, images=images,
            encoding=_rank_cells(grades) if encoding is None else encoding,
        )

    @cached_property
    def grades(self) -> tuple[tuple[Fraction, ...], ...]:
        values, rank_rows = self.encoding
        return tuple(tuple(map(values.__getitem__, row)) for row in rank_rows)


def _built_map(domain, codomain, images, encoding: Encoding) -> FuzzyMap:
    """``FuzzyMap(domain, codomain, None, images, encoding)`` without ``__init__``'s dispatch:
    the builder of every constructor here, ``homs.lift_hom`` and the induced family."""
    f = object.__new__(FuzzyMap)
    f.__dict__.update(domain=domain, codomain=codomain, images=images, encoding=encoding)
    return f


def _check_shape(domain, codomain, rows) -> None:
    if len(rows) != domain.order or any(len(row) != codomain.order for row in rows):
        raise ShapeMismatch(
            f"need a {domain.order}x{codomain.order} matrix for {domain.name} -> {codomain.name}"
        )


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
    """The map with cells ``rows``, each ``grade``d; raises what ``relation_images``
    raises for them, and ``ShapeMismatch`` for a matrix of the wrong shape."""
    values, rank_rows = _rank_cells(tuple(tuple(grade(v) for v in row) for row in rows))
    return ranked_map(domain, codomain, values, rank_rows)


def unit_rank(values: Sequence[Fraction]) -> int:
    """The rank of grade 1 in an encoding's ``values``, or -1 when 1 is not among them."""
    return len(values) - 1 if values[-1] == GRADE_ONE else -1


def indexed_map(domain: FiniteGroup, codomain: FiniteGroup, encoding, index_rows) -> FuzzyMap:
    """``make_fuzzy_map`` of the matrix whose cell (x, y) is entry ``index_rows[x][y]``
    of a ranked grade vector ``encoding = (values, ranks)``, such as ``FuzzySubset.encoding``.

    Nothing is validated or ranked again: ``ranked_map`` finds the unit
    entries on the ranks, and the cells are the objects in ``values``.
    """
    values, ranks = encoding
    rank_rows = tuple(tuple(map(ranks.__getitem__, row)) for row in index_rows)
    return ranked_map(domain, codomain, values, rank_rows)


def ranked_map(domain: FiniteGroup, codomain: FiniteGroup, values, rank_rows) -> FuzzyMap:
    """The map whose cell (x, y) is ``values[rank_rows[x][y]]``, stored as given.

    This is the unit-entry scan behind every validated constructor; it reads
    the ranks only.  Raises ``ShapeMismatch``, ``NoUnitEntry`` and
    ``MultipleUnitEntries`` as ``relation_images`` does for the same matrix.
    """
    _check_shape(domain, codomain, rank_rows)
    top = unit_rank(values)
    images = []
    for x, row in enumerate(rank_rows):
        units = row.count(top)
        if not units:
            raise NoUnitEntry(f"row {x} has no grade-1 entry")
        if units > 1:
            at = [y for y, r in enumerate(row) if r == top]
            raise MultipleUnitEntries(f"row {x} has grade-1 entries at {at}")
        images.append(row.index(top))
    return _built_map(domain, codomain, tuple(images), (values, rank_rows))


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
    """``compose`` for two maps: reindex f's rank rows through g's skeleton."""
    if g.codomain is not f.domain:
        _check_composable(f, g)
    values, rank_rows = f.encoding
    pick = picker(g.images)
    return _built_map(g.domain, f.codomain, pick(f.images), (values, pick(rank_rows)))


def is_one_one(f: FuzzyMap) -> bool:
    return len(set(f.images)) == len(f.images)


def is_onto(f: FuzzyMap) -> bool:
    return set(f.images) == set(range(f.codomain.order))


def _check_same_shape(f: FuzzyRelation, g: FuzzyRelation) -> None:
    if f.domain != g.domain or f.codomain != g.codomain:
        raise ShapeMismatch("maps live over different domain/codomain pairs")


def pointwise_equal(f: FuzzyRelation, g: FuzzyRelation) -> bool:
    """Exact matrix equality, strictly stronger than equivalence; on rank rows
    between maps with equal value lists (see the module docstring)."""
    _check_same_shape(f, g)
    if isinstance(f, FuzzyMap) and isinstance(g, FuzzyMap) and f.encoding[0] == g.encoding[0]:
        return f.encoding[1] == g.encoding[1]
    return f.grades == g.grades


def inverse_map(f: FuzzyMap) -> FuzzyMap:
    """Transpose of a bijective map.

    Column y of f has its only grade-1 entry in row f^-1(y), so the
    transpose is a map whose skeleton is the inverse permutation of f's.
    Its rank rows are f's, transposed.
    """
    if not (is_one_one(f) and is_onto(f)):
        raise NotBijective(f"{f!r} is not one-one and onto")
    images = [0] * f.domain.order
    for x, y in enumerate(f.images):
        images[y] = x
    values, rank_rows = f.encoding
    return _built_map(f.codomain, f.domain, tuple(images), (values, tuple(zip(*rank_rows))))


def crisp_map(domain: FiniteGroup, codomain: FiniteGroup, mapping: Sequence[int]) -> FuzzyMap:
    """Indicator matrix of a crisp function: grade 1 at (x, mapping[x]), else 0.

    The encoding is written down: values (0, 1), or (1,) over one element.
    """
    if len(mapping) != domain.order:
        raise ShapeMismatch(f"mapping length {len(mapping)} != order {domain.order}")
    m = codomain.order
    for y in mapping:
        if not 0 <= y < m:
            raise ShapeMismatch(f"image {y} outside the codomain")
    values = (GRADE_ZERO, GRADE_ONE) if m > 1 else (GRADE_ONE,)
    top = len(values) - 1
    rank_row = {y: (0,) * y + (top,) + (0,) * (m - 1 - y) for y in set(mapping)}
    rank_rows = tuple(rank_row[y] for y in mapping)
    return _built_map(domain, codomain, tuple(mapping), (values, rank_rows))


def identity_map(group: FiniteGroup) -> FuzzyMap:
    return crisp_map(group, group, tuple(group.elements))
