"""Fuzzy automorphisms of a single group and the group they form.

A fuzzy automorphism is a bijective fuzzy homomorphism from a group to
itself.  Composition laws, identity and inverses hold up to fuzzy-image
equality only, so the group structure lives on skeleton classes: each class
is the set of automorphisms sharing one skeleton permutation, and classes
compose through honest map composition.

Each law of section 3 has one checker here returning ``(verdict, witness)``.
The checkers take maps that are already built and never revalidate their
inputs; the raising constructors below and the law harness both call them.
Every law that reads pairwise composites reads them from one
``composite_table``, which composes each ordered pair of a map list once,
keeps each distinct composite once and names the input each one is exactly,
if any.  Lemmas 3.1 and 3.2 and Theorem 3.1 read the table of the lifted
automorphisms that their caller passes in.  Lemmas 3.7 and 4.4
(``induced.check_triple_products``) read the table of the checked labels'
maps, which the harness builds once per instance and both checkers build
for themselves when none is passed in.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import FuzzautError, Record
from .groups import (
    FiniteGroup,
    class_index,
    conjugations,
    crisp_automorphisms,
    first_non_associative,
    make_group,
    picker,
)
from .homs import NotHomomorphism, is_fuzzy_homomorphism
from .maps import FuzzyMap, compose_maps, identity_map, inverse_map, is_one_one, unit_rank


# label -> matrix: a whole labeled family as a list, or a dict of the labels involved
Family = Union[Sequence[FuzzyMap], Mapping[int, FuzzyMap]]
# what every law checker returns: the verdict, and what failed when it is False
Verdict = tuple[bool, Optional[str]]
Table = tuple[tuple[int, ...], ...]
# composite_table: the distinct composites, the k x k table of their indices,
# and per composite the least index of an input it is exactly, or None
Products = tuple[list[FuzzyMap], Table, list[Optional[int]]]


class AutomorphismError(FuzzautError):
    pass


class NotInjective(AutomorphismError):
    pass


class NotInner(AutomorphismError):
    pass


class ClosureViolation(RuntimeError):
    """A law-guaranteed closure failed; this is a library defect."""


class FuzzyAutomorphism(Record):
    """Validated bijective fuzzy homomorphism with equal domain and codomain."""

    fmap: FuzzyMap

    @property
    def group(self) -> FiniteGroup:
        return self.fmap.domain

    @property
    def images(self) -> tuple[int, ...]:
        return self.fmap.images

    @property
    def grades(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.fmap.grades

    def __repr__(self) -> str:
        return f"FuzzyAutomorphism({self.group.name}, skeleton={self.images})"


def check_automorphism(f: FuzzyMap) -> tuple[bool, Optional[FuzzautError]]:
    """Lemmas 3.1 and 3.6: f is a bijective fuzzy homomorphism of one group.

    One-one implies onto for a map of a finite group to itself.  The checks
    that follow read the skeleton, so it must mark a grade-1 entry in every
    row; that is read off the rank rows (``maps.unit_rank``).  The witness
    is the error ``make_automorphism`` raises for f.
    """
    if f.domain != f.codomain:
        return False, AutomorphismError("domain and codomain must be the same group")
    values, rows = f.encoding
    top = unit_rank(values)
    for x, y in enumerate(f.images):
        if rows[x][y] != top:
            return False, AutomorphismError(
                f"skeleton sends {x} to {y}, but row {x} grades {y} as {values[rows[x][y]]}"
            )
    report = is_fuzzy_homomorphism(f)
    if not report:
        return False, NotHomomorphism(str(report.witness))
    if not is_one_one(f):
        return False, NotInjective(f"fuzzy images {f.images} repeat a value")
    return True, None


def make_automorphism(f: FuzzyMap) -> FuzzyAutomorphism:
    """Validate and wrap, naming the failing predicate on rejection."""
    ok, error = check_automorphism(f)
    if not ok:
        raise error
    return FuzzyAutomorphism(f)


def _revalidated(f: FuzzyMap, what: str) -> FuzzyAutomorphism:
    """Wrap a map built from valid automorphisms; a failed check is a library defect."""
    ok, error = check_automorphism(f)
    if not ok:
        raise ClosureViolation(f"{what}: {error}") from error
    return FuzzyAutomorphism(f)


def compose_aut(f: FuzzyAutomorphism, g: FuzzyAutomorphism) -> FuzzyAutomorphism:
    """f.g (g acts first), revalidated; closure failure aborts loudly."""
    if f.group != g.group:
        raise AutomorphismError("automorphisms of different groups cannot compose")
    composed = compose_maps(f.fmap, g.fmap)
    return _revalidated(composed, "composition of valid automorphisms failed validation")


def identity_aut(group: FiniteGroup) -> FuzzyAutomorphism:
    """Crisp indicator of the identity permutation."""
    return make_automorphism(identity_map(group))


def inverse_aut(f: FuzzyAutomorphism) -> FuzzyAutomorphism:
    """Transpose matrix, revalidated as an automorphism."""
    return _revalidated(inverse_map(f.fmap), "transpose of a valid automorphism failed")


def check_associativity(named: Mapping[str, FuzzyMap], products: Products) -> Verdict:
    """Lemma 3.2: (f.g).h and f.(g.h) share a skeleton for every triple of named maps.

    ``compose_maps`` builds a composite's skeleton as ``f.images[g.images[z]]``,
    so a composite's skeleton class depends only on its operands' classes,
    and so does each triple's verdict.  The check therefore reads the class
    table off the k^2 honest pairwise composites in ``products`` (the maps'
    ``composite_table``) and runs ``first_non_associative`` on it: O(k^2)
    compositions instead of 2*k^3.  If a composite's skeleton is not a
    sample's, if two pairs of the same classes compose to different skeletons,
    or if the table is not associative, the triples are checked one by one
    (``_first_failing_triple``, reading its pairs from the same table), which
    gives the verdict and the witness of the exhaustive scan.
    """
    try:
        table = skeleton_class_table(list(named.values()), products)
    except AutomorphismError:
        table = None
    if table is not None and first_non_associative(table) is None:
        return True, None
    return _first_failing_triple(named, products)


def _first_failing_triple(named: Mapping[str, FuzzyMap], products: Products) -> Verdict:
    """Lemma 3.2 over every triple in lexicographic order, two compositions each;
    the pair composites are read from ``products``, the maps' ``composite_table``."""
    tags, maps = list(named), list(named.values())
    composites, cells, _ = products
    k = len(maps)
    for i in range(k):
        for j in range(k):
            for l in range(k):
                left = compose_maps(composites[cells[i][j]], maps[l])
                right = compose_maps(maps[i], composites[cells[j][l]])
                if left.images != right.images:
                    return False, f"associativity fails at ({tags[i]}, {tags[j]}, {tags[l]})"
    return True, None


def check_identity_law(f: FuzzyMap) -> Verdict:
    """Lemma 3.3: the crisp identity I gives f . I and I . f equivalent to f."""
    ident = identity_map(f.domain)
    if compose_maps(f, ident).images != f.images:
        return False, "f . I differs from f"
    if compose_maps(ident, f).images != f.images:
        return False, "I . f differs from f"
    return True, None


def check_inverse_law(f: FuzzyMap) -> Verdict:
    """Lemma 3.4: the transpose g of f is a map with g . f and f . g on the identity skeleton."""
    g = inverse_map(f)
    ident = tuple(f.domain.elements)
    if compose_maps(g, f).images != ident:
        return False, "g . f is not the identity skeleton"
    if compose_maps(f, g).images != ident:
        return False, "f . g is not the identity skeleton"
    return True, None


def is_class_preserving(f: FuzzyMap) -> bool:
    """Every fuzzy image of a map of a group to itself stays inside its argument's class."""
    idx = class_index(f.domain)
    return all(idx[f.images[x]] == idx[x] for x in f.domain.elements)


def is_inner(f: FuzzyMap) -> Optional[int]:
    """Least g whose conjugation x -> g^-1 x g is the skeleton, if any: the index
    of the first row of ``groups.conjugations`` equal to it."""
    return next((g for g, row in enumerate(conjugations(f.domain)) if row == f.images), None)


def check_inner_products(
    group: FiniteGroup, family: Family, labels: Iterable[int], products: Optional[Products] = None
) -> Verdict:
    """Lemma 3.7: f_g1 . f_g2 is equivalent to f_(g2 g1) for all labels g1, g2.

    Each composite is read from ``products``, the ``composite_table`` of the
    labels' maps, which is built here when not given.
    """
    labels = tuple(labels)
    if products is None:
        products = composite_table([family[g] for g in labels])
    composites, cells, _ = products
    t = group.table
    for g1, row in zip(labels, cells):
        for g2, c in zip(labels, row):
            label = t[g2][g1]
            if composites[c].images != family[label].images:
                return False, f"labels ({g1}, {g2}): composite not equivalent to label {label}"
    return True, None


def check_inner_inverses(group: FiniteGroup, family: Family, labels: Iterable[int]) -> Verdict:
    """Lemma 3.8: the transpose of f_g is equivalent to f_(g^-1) for every label g."""
    inv = group.inverses
    for g in labels:
        if inverse_map(family[g]).images != family[inv[g]].images:
            return False, f"label {g}: transpose not equivalent to label {inv[g]}"
    return True, None


def check_inner_conjugate(conj: FuzzyMap) -> tuple[bool, object]:
    """Lemma 3.9: a conjugate f^-1 . f_g . f is again an inner fuzzy automorphism."""
    if is_inner(conj) is None:
        return False, f"skeleton {conj.images} is not inner"
    return check_automorphism(conj)


def conjugate_aut(f: FuzzyAutomorphism, f_g: FuzzyAutomorphism) -> FuzzyAutomorphism:
    """inverse(f) . f_g . f; the result must be inner again."""
    if f.group != f_g.group:
        raise AutomorphismError("automorphisms of different groups cannot compose")
    if is_inner(f_g.fmap) is None:
        raise NotInner("conjugation requires an inner automorphism")
    conj = compose_maps(inverse_map(f.fmap), compose_maps(f_g.fmap, f.fmap))
    ok, witness = check_inner_conjugate(conj)
    if not ok:
        raise ClosureViolation(f"conjugate of an inner automorphism failed: {witness}")
    return FuzzyAutomorphism(conj)


def composite_table(maps: Sequence[FuzzyMap]) -> Products:
    """Every ordered pair of ``maps`` composed once, through ``compose_maps``: the
    distinct composites, keyed on ``(images, encoding)`` in row-major order of
    first appearance; the k x k table whose cell (i, j) indexes
    maps[i] . maps[j]; and for each distinct composite the least i such that
    it is maps[i] exactly (the same key), or None.  A key numbers the map's
    value list and rank rows, so the ``Fraction``s of a list are hashed once
    per list object and each input's rows once: the rows of f . g are f's
    rows picked through g's skeleton, whose numbers are f's numbers picked
    the same way.  A composite that holds other rows has them numbered one
    by one, so the key stays exact whatever ``compose_maps`` returns."""
    row_ids: dict[tuple, int] = {}
    sample_ids = [tuple(row_ids.setdefault(r, len(row_ids)) for r in f.encoding[1]) for f in maps]
    pickers = [picker(g.images) for g in maps]
    seen: dict[tuple, tuple[int, FuzzyMap]] = {}  # key -> (index, first composite)
    inputs: dict[tuple, int] = {}  # key -> least index of an input
    value_ids: dict[tuple, int] = {}
    last = v = None
    cells = []
    for a, (f, f_ids) in enumerate(zip(maps, sample_ids)):
        f_values, f_rows = f.encoding
        if f_values is not last:
            last, v = f_values, value_ids.setdefault(f_values, len(value_ids))
        inputs.setdefault((v, f.images, f_ids), a)
        row = []
        for g, pick in zip(maps, pickers):
            h = compose_maps(f, g)
            values, rank_rows = h.encoding
            if values is not last:  # a composite shares its left operand's value list
                last, v = values, value_ids.setdefault(values, len(value_ids))
            if rank_rows == pick(f_rows):  # compares row objects by identity first
                ids = pick(f_ids)
            else:
                ids = tuple(row_ids.setdefault(r, len(row_ids)) for r in rank_rows)
            c, _ = seen.setdefault((v, h.images, ids), (len(seen), h))
            row.append(c)
        cells.append(tuple(row))
    return [h for _, h in seen.values()], tuple(cells), [inputs.get(key) for key in seen]


def skeleton_class_table(maps: Sequence[FuzzyMap], products: Products) -> Table:
    """The table of the skeleton classes of ``maps`` under ``compose_maps``.

    Classes are numbered in sorted order of their skeletons.  Cell (a, b) is
    the class of f.g for maps f in class a and g in class b, read from
    ``products``, the ``composite_table`` of ``maps``.
    Raises ``AutomorphismError`` if a composite's skeleton is not among the
    classes, or if two pairs of the same classes give different skeletons.
    """
    composites, cells, _ = products
    skeletons = sorted({f.images for f in maps})
    index = {sk: i for i, sk in enumerate(skeletons)}
    table: list[list[Optional[int]]] = [[None] * len(skeletons) for _ in skeletons]
    for f, cell_row in zip(maps, cells):
        a = index[f.images]
        row = table[a]
        for g, cell in zip(maps, cell_row):
            b = index[g.images]
            sk = composites[cell].images
            c = index.get(sk)
            if c is None:
                raise AutomorphismError(f"samples not closed under composition: {sk}")
            if row[b] is None:
                row[b] = c
            elif row[b] != c:
                raise AutomorphismError(f"classes ({a}, {b}) compose to classes {row[b]} and {c}")
    return tuple(map(tuple, table))


def build_aut_class_group(
    maps: Sequence[FuzzyMap], products: Optional[Products] = None
) -> tuple[tuple[tuple[int, ...], ...], FiniteGroup]:
    """The sorted class skeletons, and their Cayley table under honest composition.

    The table is ``skeleton_class_table`` of all the maps, read from
    ``products`` (their ``composite_table``, built when not given).  The maps
    are taken as certified; Lemma 3.1 checks their composites.  Raises if the
    sample set is not closed under composition or two pairs of the same
    classes compose to different classes; the table is validated as a group
    (``make_group``) before returning.
    """
    if not maps:
        raise AutomorphismError("cannot build a group from zero samples")
    table = skeleton_class_table(maps, composite_table(maps) if products is None else products)
    skeletons = tuple(sorted({f.images for f in maps}))
    return skeletons, make_group(table, name=f"AutF({maps[0].domain.name})")


def check_class_group(maps: Sequence[FuzzyMap], products: Products) -> Verdict:
    """Theorem 3.1: the skeleton classes of the automorphisms form a group whose skeletons
    are exactly the crisp automorphisms of the group; ``products`` is the maps'
    ``composite_table``, read as in ``build_aut_class_group``."""
    try:
        skeletons, _ = build_aut_class_group(maps, products)
    except FuzzautError as exc:
        return False, f"class group construction failed: {exc}"
    crisp = set(crisp_automorphisms(maps[0].domain))
    if set(skeletons) != crisp:
        return False, (
            f"sample skeletons ({len(skeletons)}) differ from the crisp automorphism "
            f"group ({len(crisp)})"
        )
    return True, None
