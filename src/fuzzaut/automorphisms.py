"""Fuzzy automorphisms of a single group and the group they form.

A fuzzy automorphism is a bijective fuzzy homomorphism from a group to
itself.  Composition laws, identity and inverses hold up to fuzzy-image
equality only, so the group structure lives on skeleton classes: each class
is the set of automorphisms sharing one skeleton permutation, and classes
compose through honest map composition.

Each law of section 3 has one checker here returning ``(verdict, witness)``.
The checkers take maps that are already built and never revalidate their
inputs; the raising constructors below and the law harness both call them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import FuzzautError, Record
from .groups import (
    FiniteGroup,
    class_index,
    crisp_automorphisms,
    first_non_associative,
    make_group,
)
from .homs import NotHomomorphism, is_fuzzy_homomorphism
from .maps import FuzzyMap, compose_maps, identity_map, inverse_map, is_one_one, unit_rank


# label -> matrix: a whole labeled family as a list, or a dict of the labels involved
Family = Union[Sequence[FuzzyMap], Mapping[int, FuzzyMap]]
# what every law checker returns: the verdict, and what failed when it is False
Verdict = tuple[bool, Optional[str]]


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

    _compared = ("fmap",)

    fmap: FuzzyMap

    def __init__(self, fmap) -> None:
        self.__dict__.update(fmap=fmap)

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


def compose_aut(f: FuzzyAutomorphism, g: FuzzyAutomorphism) -> FuzzyAutomorphism:
    """f.g (g acts first), revalidated; closure failure aborts loudly."""
    if f.group != g.group:
        raise AutomorphismError("automorphisms of different groups cannot compose")
    composed = compose_maps(f.fmap, g.fmap)
    ok, error = check_automorphism(composed)
    if not ok:
        raise ClosureViolation(
            f"composition of valid automorphisms failed validation: {error}"
        ) from error
    return FuzzyAutomorphism(composed)


def identity_aut(group: FiniteGroup) -> FuzzyAutomorphism:
    """Crisp indicator of the identity permutation."""
    return make_automorphism(identity_map(group))


def inverse_aut(f: FuzzyAutomorphism) -> FuzzyAutomorphism:
    """Transpose matrix, revalidated as an automorphism."""
    transpose = inverse_map(f.fmap)
    ok, error = check_automorphism(transpose)
    if not ok:
        raise ClosureViolation(f"transpose of a valid automorphism failed: {error}") from error
    return FuzzyAutomorphism(transpose)


def check_associativity(named: Mapping[str, FuzzyMap]) -> Verdict:
    """Lemma 3.2: (f.g).h and f.(g.h) share a skeleton for every triple of named maps.

    ``compose_maps`` builds a composite's skeleton as ``f.images[g.images[z]]``,
    so a composite's skeleton class depends only on its operands' classes,
    and so does each triple's verdict.  The check therefore builds the
    table of skeleton classes once, from the k^2 honest pairwise composites
    (``skeleton_class_table``), and runs ``first_non_associative`` on it:
    O(k^2) compositions instead of 2*k^3.  If a composite's skeleton is not
    a sample's, if two pairs of the same classes compose to different
    skeletons, or if the table is not associative, the triples are checked
    one by one (``_first_failing_triple``), which gives the verdict and the
    witness of the exhaustive scan.
    """
    try:
        table = skeleton_class_table(list(named.values()))
    except AutomorphismError:
        table = None
    if table is not None and first_non_associative(table) is None:
        return True, None
    return _first_failing_triple(named)


def _first_failing_triple(named: Mapping[str, FuzzyMap]) -> Verdict:
    """Lemma 3.2 over every triple in lexicographic order, two compositions each."""
    tags, maps = list(named), list(named.values())
    k = len(maps)
    pair = {(i, j): compose_maps(maps[i], maps[j]) for i in range(k) for j in range(k)}
    for i in range(k):
        for j in range(k):
            for l in range(k):
                left = compose_maps(pair[i, j], maps[l])
                right = compose_maps(maps[i], pair[j, l])
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
    """Least g whose conjugation permutation equals the skeleton, if any."""
    group = f.domain
    images = f.images
    for g in group.elements:
        if all(images[x] == group.conjugate(x, g) for x in group.elements):
            return g
    return None


def check_inner_products(group: FiniteGroup, family: Family, labels: Iterable[int]) -> Verdict:
    """Lemma 3.7: f_g1 . f_g2 is equivalent to f_(g2 g1) for all labels g1, g2."""
    labels = tuple(labels)
    t = group.table
    for g1 in labels:
        for g2 in labels:
            label = t[g2][g1]
            if compose_maps(family[g1], family[g2]).images != family[label].images:
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


class AutClass(Record):
    """Skeleton class: canonical permutation plus one representative."""

    _compared = ("skeleton", "representative")

    skeleton: tuple[int, ...]
    representative: FuzzyAutomorphism

    def __init__(self, skeleton, representative) -> None:
        self.__dict__.update(skeleton=skeleton, representative=representative)

    def __repr__(self) -> str:
        return f"AutClass{self.skeleton}"


def aut_classes(samples: Iterable[FuzzyAutomorphism]) -> tuple[AutClass, ...]:
    """Group samples by skeleton; classes sorted by their permutation."""
    by_skeleton: dict[tuple[int, ...], FuzzyAutomorphism] = {}
    for f in samples:
        by_skeleton.setdefault(f.images, f)
    return tuple(
        AutClass(sk, by_skeleton[sk]) for sk in sorted(by_skeleton)
    )


def skeleton_class_table(maps: Sequence[FuzzyMap]) -> tuple[tuple[int, ...], ...]:
    """The table of the skeleton classes of ``maps`` under ``compose_maps``.

    Classes are numbered in sorted order of their skeletons.  Cell (a, b) is
    the class of f.g for maps f in class a and g in class b; every ordered
    pair of maps is composed once, in order.  Raises
    ``AutomorphismError`` if a composite's skeleton is not among the
    classes, or if two pairs of the same classes give different skeletons.
    """
    skeletons = sorted({f.images for f in maps})
    index = {sk: i for i, sk in enumerate(skeletons)}
    table: list[list[Optional[int]]] = [[None] * len(skeletons) for _ in skeletons]
    for f in maps:
        a = index[f.images]
        row = table[a]
        for g in maps:
            b = index[g.images]
            sk = compose_maps(f, g).images
            c = index.get(sk)
            if c is None:
                raise AutomorphismError(f"samples not closed under composition: {sk}")
            if row[b] is None:
                row[b] = c
            elif row[b] != c:
                raise AutomorphismError(f"classes ({a}, {b}) compose to classes {row[b]} and {c}")
    return tuple(map(tuple, table))


def build_aut_class_group(
    samples: Iterable[FuzzyAutomorphism],
) -> tuple[tuple[AutClass, ...], FiniteGroup]:
    """Cayley table on skeleton classes via honest composition of representatives.

    Representatives are taken as already certified; closure of the validity
    predicates under composition is the composition law's own check.  Raises
    if the sample set is not closed under composition; the table is validated
    as a group (``make_group``) before returning.
    """
    classes = aut_classes(samples)
    if not classes:
        raise AutomorphismError("cannot build a group from zero samples")
    table = skeleton_class_table([c.representative.fmap for c in classes])
    group_name = classes[0].representative.group.name
    return classes, make_group(table, name=f"AutF({group_name})")


def check_class_group(maps: Iterable[FuzzyMap]) -> Verdict:
    """Theorem 3.1: the skeleton classes of the automorphisms form a group whose
    skeletons are exactly the crisp automorphisms of the group."""
    try:
        classes, _ = build_aut_class_group(FuzzyAutomorphism(f) for f in maps)
    except FuzzautError as exc:
        return False, f"class group construction failed: {exc}"
    skeletons = {c.skeleton for c in classes}
    crisp = set(crisp_automorphisms(classes[0].representative.group))
    if skeletons != crisp:
        return False, (
            f"sample skeletons ({len(skeletons)}) differ from the crisp automorphism "
            f"group ({len(crisp)})"
        )
    return True, None
