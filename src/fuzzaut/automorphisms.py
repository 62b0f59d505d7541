"""Fuzzy automorphisms of a single group and the group they form.

A fuzzy automorphism is a bijective fuzzy homomorphism from a group to
itself.  Composition laws, identity and inverses hold up to fuzzy-image
equality only, so the group structure lives on skeleton classes: each class
is the set of automorphisms sharing one skeleton permutation, and classes
compose through honest map composition.

Each law of section 3 has one checker here returning a ``Verdict``, the
verdict and the text of what failed.  The checkers take maps that are
already built and never revalidate their inputs; the law harness calls them
on every sample, and so can any caller.
Every law that reads pairwise composites reads them from one
``composite_table``, which composes each ordered pair of a map list once,
keeps each distinct composite once and names the input each one is exactly,
if any.  Lemmas 3.1 and 3.2 and Theorem 3.1 read the table of the lifted
automorphisms, and Lemmas 3.7 and 4.4 (``induced.check_triple_products``)
that of the checked labels' maps; the caller builds each table and passes
it in, as the harness does once per instance.
"""

from __future__ import annotations

from operator import getitem
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import FuzzautError, Verdict, derived_cache
from .groups import (
    FiniteGroup,
    class_index,
    conjugations,
    crisp_automorphisms,
    derived_group,
    picker,
)
from .homs import is_fuzzy_homomorphism
from .maps import FuzzyMap, compose_maps, identity_map, inverse_map, is_one_one, unit_rank


# label -> matrix: a whole labeled family as a list, or a dict of the labels involved
Family = Union[Sequence[FuzzyMap], Mapping[int, FuzzyMap]]
Table = tuple[tuple[int, ...], ...]
# composite_table: the distinct composites, the k x k table of their indices,
# and per composite the least index of an input it is exactly, or None
Products = tuple[list[FuzzyMap], Table, list[Optional[int]]]


class AutomorphismError(FuzzautError):
    pass


def check_automorphism(f: FuzzyMap) -> Verdict:
    """Lemmas 3.1 and 3.6: f is a bijective fuzzy homomorphism of one group.

    One-one implies onto for a map of a finite group to itself.  The checks
    that follow read the skeleton, so it must mark a grade-1 entry in every
    row; that is read off the rank rows (``maps.unit_rank``) in one gather, and
    a failing skeleton is walked to its first row.  The witness names the first
    failed predicate: the groups differ, the skeleton misses a grade-1 cell, the
    homomorphism witness of ``is_fuzzy_homomorphism``, or a repeated image.
    """
    if f.domain != f.codomain:
        return False, "domain and codomain must be the same group"
    values, rows = f.encoding
    top = unit_rank(values)
    if list(map(getitem, rows, f.images)).count(top) != len(f.images):
        for x, y in enumerate(f.images):
            if rows[x][y] != top:
                return False, (f"skeleton sends {x} to {y}, but row {x} grades {y} "
                               f"as {values[rows[x][y]]}")
    report = is_fuzzy_homomorphism(f)
    if not report:
        return False, str(report.witness)
    if not is_one_one(f):
        return False, f"fuzzy images {f.images} repeat a value"
    return True, None


def check_composites(named: Mapping[str, FuzzyMap], products: Products) -> Verdict:
    """Lemma 3.1: f.g is a fuzzy automorphism for every ordered pair of named maps.

    Each distinct composite of ``products``, the maps' ``composite_table``, is
    checked once; they are numbered by first appearance in row-major order,
    so the least failing one names the first failing pair."""
    composites, cells, _ = products
    for c, h in enumerate(composites):
        verdict, witness = check_automorphism(h)
        if not verdict:
            tags = list(named)
            i, j = next((i, row.index(c)) for i, row in enumerate(cells) if c in row)
            return False, f"({tags[i]}) . ({tags[j]}): {witness}"
    return True, None


def check_associativity(named: Mapping[str, FuzzyMap], products: Products) -> Verdict:
    """Lemma 3.2: (f.g).h and f.(g.h) share a skeleton for every triple of named maps.

    ``compose_maps`` builds a composite's skeleton as ``f.images[g.images[z]]``,
    so a composite's skeleton class depends only on its operands' classes,
    and so does each triple's verdict.  The law therefore holds when
    ``build_aut_class_group`` returns: it reads the class table off the k^2
    pairwise composites in ``products`` (the maps' ``composite_table``) and
    validates it as a group, O(k^2) compositions instead of 2*k^3.  If it
    raises, the triples are checked one by one (``_first_failing_triple``,
    reading its pairs from the same table), which gives the verdict and the
    witness of the exhaustive scan.
    """
    try:
        build_aut_class_group(list(named.values()), products)
    except FuzzautError:
        return _first_failing_triple(named, products)
    return True, None


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


def check_inverse_law(f: FuzzyMap, f_inv: FuzzyMap) -> Verdict:
    """Lemma 3.4: f_inv, the transpose g of f (``maps.inverse_map``), gives
    g . f and f . g on the identity skeleton."""
    ident = tuple(f.domain.elements)
    if compose_maps(f_inv, f).images != ident:
        return False, "g . f is not the identity skeleton"
    if compose_maps(f, f_inv).images != ident:
        return False, "f . g is not the identity skeleton"
    return True, None


def check_transpose_product(f: FuzzyMap, f_inv: FuzzyMap) -> Verdict:
    """Lemma 3.5: f_inv . f is a fuzzy homomorphism, f_inv the transpose of f
    (``maps.inverse_map``); the witness is ``is_fuzzy_homomorphism``'s."""
    report = is_fuzzy_homomorphism(compose_maps(f_inv, f))
    return (True, None) if report else (False, str(report.witness))


def is_class_preserving(f: FuzzyMap) -> bool:
    """Every fuzzy image of a map of a group to itself stays inside its argument's class."""
    idx = class_index(f.domain)
    return all(idx[f.images[x]] == idx[x] for x in f.domain.elements)


@derived_cache
def _inner_labels(group: FiniteGroup) -> dict[tuple[int, ...], int]:
    """Each row of ``groups.conjugations`` mapped to the least g whose row it is."""
    return {row: g for g, row in reversed(tuple(enumerate(conjugations(group))))}


def is_inner(f: FuzzyMap) -> Optional[int]:
    """Least g whose conjugation x -> g^-1 x g is the skeleton, if any: the index
    of the first row of ``groups.conjugations`` equal to it (``_inner_labels``)."""
    return _inner_labels(f.domain).get(f.images)


def check_inner_products(
    group: FiniteGroup, family: Family, labels: Iterable[int], products: Products
) -> Verdict:
    """Lemma 3.7: f_g1 . f_g2 is equivalent to f_(g2 g1) for all labels g1, g2.

    Each composite is read from ``products``, the ``composite_table`` of the
    labels' maps.
    """
    labels = tuple(labels)
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


def check_inner_conjugates(f: FuzzyMap, f_inv: FuzzyMap, family: Family,
                           labels: Iterable[int]) -> Verdict:
    """Lemma 3.9: each conjugate f_inv . f_g . f of a labeled map is again an inner
    fuzzy automorphism; f_inv is the transpose of f (``maps.inverse_map``).
    The witness names the first failing label."""
    for g in labels:
        conj = compose_maps(f_inv, compose_maps(family[g], f))
        if is_inner(conj) is None:
            return False, f"conjugate of label {g}: skeleton {conj.images} is not inner"
        verdict, witness = check_automorphism(conj)
        if not verdict:
            return False, f"conjugate of label {g}: {witness}"
    return True, None


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


def build_aut_class_group(maps: Sequence[FuzzyMap], products: Products) -> tuple[Table, FiniteGroup]:
    """The sorted class skeletons, and their Cayley table under honest composition.

    Classes are numbered in sorted order of their skeletons.  Cell (a, b) is
    the class of f.g for maps f in class a and g in class b, read from
    ``products``, the ``composite_table`` of ``maps``; the maps are taken as
    certified (Lemma 3.1 checks their composites).  Raises
    ``AutomorphismError`` for no maps, a composite's skeleton outside the
    classes, or two pairs of the same classes with different skeletons, and
    what ``make_group`` raises for a table that is no group; the canonical
    group of the table (``groups.derived_group``) is validated once per
    campaign, so Lemma 3.2 and Theorem 3.1 decide it once.
    """
    if not maps:
        raise AutomorphismError("cannot build a group from zero samples")
    composites, cells, _ = products
    skeletons = tuple(sorted({f.images for f in maps}))
    index = {sk: i for i, sk in enumerate(skeletons)}
    classes = [index[f.images] for f in maps]
    table: list[list[Optional[int]]] = [[None] * len(skeletons) for _ in skeletons]
    for a, cell_row in zip(classes, cells):
        row = table[a]
        for b, cell in zip(classes, cell_row):
            sk = composites[cell].images
            c = index.get(sk)
            if c is None:
                raise AutomorphismError(f"samples not closed under composition: {sk}")
            if row[b] is None:
                row[b] = c
            elif row[b] != c:
                raise AutomorphismError(f"classes ({a}, {b}) compose to classes {row[b]} and {c}")
    return skeletons, derived_group(table, name=f"AutF({maps[0].domain.name})")


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
