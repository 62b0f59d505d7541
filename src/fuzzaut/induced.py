"""Inner automorphisms induced by a normal pointed membership function.

For a group element g and a valid mu, the induced map grades the pair (x, y)
by mu(x^-1 * g * y * g^-1).  Its unit entries trace conjugation by g, the
family composes by reversed label product with exact matrix equality, and the
identity-labeled member acts as a two-sided identity.  Two structures sit on
top: the skeleton-class group (isomorphic to the quotient by the center) and
the label-indexed family targeted by the graded evaluation map.

Each law of section 4 has one checker here returning ``(verdict, witness)``.
A checker takes a labeled family that is already built (the whole family as
a list, or a dict of the labels involved) plus the labels to check, and
names the failing labels in its witness.  The certifying constructors below
and the law harness both call them.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Optional

from .automorphisms import (
    Family,
    Products,
    Verdict,
    check_inner_inverses,
    composite_table,
    is_class_preserving,
)
from .errors import FuzzautError, Record, derived_cache
from .groups import (
    ElementSubset,
    FiniteGroup,
    center,
    center_quotient,
    conjugations,
    first_non_multiplicative,
    is_group_isomorphism,
    make_group,
    opposite_group,
    picker,
)
from .homs import HomCheckReport, is_fuzzy_homomorphism
from .maps import (
    FuzzyMap,
    compose_maps,
    indexed_map,
    is_one_one,
    is_onto,
    pointwise_equal,
    ranked_map,
)
from .subsets import FuzzySubset, require_valid_mu


class MuMismatch(FuzzautError):
    pass


class LawViolation(RuntimeError):
    """An exact matrix law failed for validated inputs; a library defect."""


class InducedInner(Record):
    """Labeled induced map: the label g, the membership function, the matrix."""

    label: int
    mu: FuzzySubset
    fmap: FuzzyMap

    @property
    def group(self) -> FiniteGroup:
        return self.mu.group

    def __repr__(self) -> str:
        return f"InducedInner(g={self.label}, group={self.group.name})"


def induced_indices(group: FiniteGroup, g: int) -> tuple[tuple[int, ...], ...]:
    """Element x^-1 g y g^-1 at (x, y): the argument of mu in each cell of f_g."""
    t = group.table
    inv = group.inverses
    g_inv = inv[g]
    conj = [t[t[g][y]][g_inv] for y in group.elements]
    return tuple(tuple(map(t[inv[x]].__getitem__, conj)) for x in group.elements)


def induced_map(mu: FuzzySubset, g: int) -> FuzzyMap:
    """f_g, graded mu(x^-1 g y g^-1), as a validated fuzzy map.

    No validity assumptions on mu and no law assertions.
    """
    return indexed_map(mu.group, mu.group, mu.encoding, induced_indices(mu.group, g))


def induced_family_raw(group: FiniteGroup, mu: FuzzySubset) -> list[FuzzyMap]:
    """All labeled maps as validated fuzzy maps, with no law assertions.

    Every f_g is f_e with its columns permuted by conjugation:
    f_g(x, y) = mu(x^-1 * (g y g^-1)) = f_e(x, g y g^-1).  This is an identity
    of the cell arguments alone, so it holds for every mu, valid or not.  So
    each f_g picks its rows' cells from f_e's rank rows, mu's
    ``translate_rows``, which the lifts through mu share.  Its unit entries
    are f_e's moved by the inverse of the column pick y -> g y g^-1: row x of
    f_g has its unit at g^-1 u_x g, where u_x is f_e's unit position for x
    (``mu.translate_images``).  Both the pick and its inverse are rows of
    ``groups.conjugations``, cached per group.  If f_e's scan failed, so
    does every label's: permuting a row's columns keeps its number of
    grade-1 cells.  Then ``maps.ranked_map`` scans label 0's rows, raising
    what ``induced_map`` raises for the first label.  No grade is read;
    each map derives its grades when they are asked for.

    For a valid mu, f_g is the lift of conjugation x -> g^-1 x g through mu,
    so it is a fuzzy homomorphism by the argument of ``homs.lift_hom``;
    Lemma 4.1 still checks each one through the oracle.
    """
    conj, inv = conjugations(group), group.inverses
    values, rank_rows, units = mu.encoding[0], mu.translate_rows, mu.translate_images

    def rows(g: int) -> tuple[tuple[int, ...], ...]:
        return tuple(map(picker(conj[inv[g]]), rank_rows))  # y -> g y g^-1 is row g^-1

    if units is None:
        ranked_map(group, group, values, rows(0))
        raise RuntimeError("f_e has no skeleton, yet f_0, a column permutation of it, has one")
    return [FuzzyMap(group, group, None, picker(units)(conj[g]), (values, rows(g)))
            for g in group.elements]


def check_induced_homomorphism(
    group: FiniteGroup, family: Family, labels: Iterable[int]
) -> Verdict:
    """Lemma 4.1: each f_g has conjugation by g as its skeleton and is a fuzzy homomorphism."""
    rows = conjugations(group)
    for g in labels:
        fmap = family[g]
        if fmap.images != rows[g]:
            return False, f"label {g}: skeleton is not conjugation"
        report = is_fuzzy_homomorphism(fmap)
        if not report:
            return False, f"label {g}: {report.witness}"
    return True, None


def check_induced_bijective(group: FiniteGroup, family: Family, labels: Iterable[int]) -> Verdict:
    """Lemma 4.2: each f_g is one-one, onto and class preserving."""
    for g in labels:
        fmap = family[g]
        if not is_one_one(fmap):
            return False, f"label {g}: not one-one"
        if not is_onto(fmap):
            return False, f"label {g}: not onto"
        if not is_class_preserving(fmap):
            return False, f"label {g}: not class preserving"
    return True, None


@derived_cache
def make_induced(g: int, mu: FuzzySubset) -> InducedInner:
    """Construct and certify one induced inner automorphism.

    The membership function must be a normal fuzzy subgroup, pointed at the
    identity.  The finished map is asserted to be a bijective,
    class-preserving fuzzy homomorphism whose skeleton is conjugation by g;
    any failure here is a defect, not an input error.
    """
    require_valid_mu(mu)
    group = mu.group
    if not 0 <= g < group.order:
        raise FuzzautError(f"label {g} outside 0..{group.order - 1}")
    family = {g: induced_map(mu, g)}
    for check in (check_induced_homomorphism, check_induced_bijective):
        ok, witness = check(group, family, (g,))
        if not ok:
            raise LawViolation(witness)
    return InducedInner(g, mu, family[g])


def check_label_products(
    group: FiniteGroup, family: Family, pairs: Iterable[tuple[int, int]]
) -> Verdict:
    """Lemma 4.3: f_g1 . f_g2 equals f_(g2 g1) cell by cell for each pair (g1, g2).

    Cells are compared by ``pointwise_equal``, so on rank rows when the maps
    share a value list.  The witness names the first pair and cell where
    sup composition and the label product disagree.
    """
    t = group.table
    for g1, g2 in pairs:
        label = t[g2][g1]
        composite = compose_maps(family[g1], family[g2])
        if not pointwise_equal(composite, family[label]):
            composed, expected = composite.grades, family[label].grades
            x = next(x for x in group.elements if composed[x] != expected[x])
            y = next(y for y in group.elements if composed[x][y] != expected[x][y])
            return False, (
                f"labels ({g1}, {g2}) at cell ({x}, {y}): "
                f"composite={composed[x][y]} label-{label}={expected[x][y]}"
            )
    return True, None


def compose_induced(a: InducedInner, b: InducedInner) -> InducedInner:
    """a.b = the map labeled by b.label * a.label, in exact matrix equality.

    The label shortcut is the law under test, so the result is checked
    pointwise against honest sup composition every time.
    """
    if a.mu != b.mu:
        raise MuMismatch("operands carry different membership functions")
    result = make_induced(a.group.table[b.label][a.label], a.mu)
    family = {a.label: a.fmap, b.label: b.fmap, result.label: result.fmap}
    ok, witness = check_label_products(a.group, family, [(a.label, b.label)])
    if not ok:
        raise LawViolation(witness)
    return result


def check_triple_products(
    group: FiniteGroup, family: Family, labels: Iterable[int], products: Optional[Products] = None
) -> Verdict:
    """Lemma 4.4: both bracketings of f_g1 . f_g2 . f_g3 are equivalent to f_(g3 g2 g1).

    ``products`` is the ``composite_table`` of the labels' maps, built here
    when not given; it names, for each pair composite, the first of those
    maps it is exactly (the same skeleton and encoding), if any.
    ``compose_maps`` is a function of its operands' contents, so a composite
    that is exactly f_a composes with every map as f_a does.  With
    f_g1 . f_g2 exactly f_a and f_g2 . f_g3 exactly f_b, the bracketings
    (f_g1 . f_g2) . f_g3 and f_g1 . (f_g2 . f_g3) are the table's f_a . f_g3
    and f_g1 . f_b, two lookups per triple, and the check makes r^2
    compositions for r labels instead of r^2 + 3r^3.  This rests on that
    purity alone, not on ``compose_maps`` being right.  A pair composite
    that is none of the maps (a mu that is not normal, or a defect) is
    composed with the third map of each triple.  The triples are visited in
    lexicographic order, so the witness is the first failing triple.
    """
    labels = tuple(labels)
    maps = [family[g] for g in labels]
    composites, cells, index = composite_table(maps) if products is None else products
    t = group.table
    for (i, g1), (j, g2), (l, g3) in product(enumerate(labels), repeat=3):
        ij, jl = cells[i][j], cells[j][l]
        a, b = index[ij], index[jl]
        left = compose_maps(composites[ij], maps[l]) if a is None else composites[cells[a][l]]
        right = compose_maps(maps[i], composites[jl]) if b is None else composites[cells[i][b]]
        label = t[t[g3][g2]][g1]
        if not (left.images == right.images == family[label].images):
            return False, f"triple ({g1}, {g2}, {g3}) misses label {label}"
    return True, None


def check_identity_label(mu: FuzzySubset, family: Family, labels: Iterable[int]) -> Verdict:
    """Lemma 4.5: f_e is mu(x^-1 y) and a two-sided identity for each f_g, exactly.

    f_e is compared with ``induced_map(mu, e)``, which is built on its own,
    and the identity laws are checked; all three go through ``pointwise_equal``.
    """
    group = mu.group
    ident = family[group.identity]
    if not pointwise_equal(ident, induced_map(mu, group.identity)):
        return False, "identity-labeled matrix is not mu(x^-1 y)"
    for g in labels:
        if not pointwise_equal(compose_maps(family[g], ident), family[g]):
            return False, f"label {g}: f . I differs pointwise"
        if not pointwise_equal(compose_maps(ident, family[g]), family[g]):
            return False, f"label {g}: I . f differs pointwise"
    return True, None


@derived_cache
def identity_induced(mu: FuzzySubset) -> InducedInner:
    """The identity-labeled member, mu(x^-1 y); a two-sided identity.

    Both one-sided identity laws are verified pointwise against the whole
    labeled family.
    """
    group = mu.group
    family = [make_induced(g, mu).fmap for g in group.elements]
    ok, witness = check_identity_label(mu, family, group.elements)
    if not ok:
        raise LawViolation(witness)
    return make_induced(group.identity, mu)


def check_inverse_labels(group: FiniteGroup, family: Family, labels: Iterable[int]) -> Verdict:
    """Lemma 4.6: f_g and f_(g^-1) compose to the identity matrix both ways, and
    the transpose of f_g is equivalent to f_(g^-1) (the Lemma 3.8 check)."""
    inv = group.inverses
    ident = family[group.identity]
    for g in labels:
        gi = inv[g]
        if not pointwise_equal(compose_maps(family[g], family[gi]), ident):
            return False, f"label {g}: f_g . f_g^-1 is not the identity matrix"
        if not pointwise_equal(compose_maps(family[gi], family[g]), ident):
            return False, f"label {g}: f_g^-1 . f_g is not the identity matrix"
        ok, witness = check_inner_inverses(group, family, (g,))
        if not ok:
            return False, witness
    return True, None


def inverse_induced(a: InducedInner) -> InducedInner:
    """The map labeled by the group inverse; both compositions give the identity."""
    group = a.group
    result = make_induced(group.inverses[a.label], a.mu)
    ident = make_induced(group.identity, a.mu)
    family = {a.label: a.fmap, result.label: result.fmap, ident.label: ident.fmap}
    ok, witness = check_inverse_labels(group, family, (a.label,))
    if not ok:
        raise LawViolation(witness)
    return result


class InnGroup(Record):
    """Skeleton classes of the labeled family with their Cayley table.

    ``classes`` partitions the labels (two labels agree exactly when they lie
    in the same coset of the center); ``table`` composes classes by reversed
    label product and is validated as a group.
    """

    group: FiniteGroup
    mu: FuzzySubset
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    table: FiniteGroup

    def __repr__(self) -> str:
        return f"InnGroup({self.group.name}, classes={len(self.classes)})"


@derived_cache
def build_inn_group(group: FiniteGroup, mu: FuzzySubset) -> InnGroup:
    """Quotient the labeled family by skeleton equality and build its table."""
    if mu.group != group:
        raise MuMismatch(f"mu is over {mu.group.name}, not {group.name}")
    require_valid_mu(mu)
    family = induced_family_raw(group, mu)
    by_skeleton: dict[tuple[int, ...], list[int]] = {}
    for g, fmap in enumerate(family):
        by_skeleton.setdefault(fmap.images, []).append(g)
    classes = tuple(sorted((tuple(sorted(v)) for v in by_skeleton.values()), key=lambda c: c[0]))
    class_of = [0] * group.order
    for i, cls in enumerate(classes):
        for g in cls:
            class_of[g] = i
    z = center(group)
    if len(classes) * len(z) != group.order:
        raise LawViolation(
            f"{len(classes)} classes with a center of size {len(z)} in a group of order {group.order}"
        )
    reps = [cls[0] for cls in classes]
    table = [[class_of[group.table[g2][g1]] for g2 in reps] for g1 in reps]
    inn_table = make_group(table, name=f"InnF({group.name})")
    return InnGroup(group, mu, classes, tuple(class_of), inn_table)


class ZetaCheck(Record):
    """The label-to-class map g -> class(g^-1) with its verification facts."""

    inn: InnGroup
    images: tuple[int, ...]
    multiplicative: bool
    surjective: bool
    kernel: ElementSubset
    kernel_is_center: bool
    quotient: FiniteGroup
    coset_map: tuple[int, ...]
    induced_iso: Optional[tuple[int, ...]]
    isomorphism: bool

    @property
    def ok(self) -> bool:
        return self.witness is None

    @property
    def witness(self) -> Optional[str]:
        """The facts that fail, joined; None when all hold."""
        failed = [text for holds, text in (
            (self.multiplicative, "not multiplicative"),
            (self.surjective, "not surjective"),
            (self.kernel_is_center, f"kernel {self.kernel.indices} is not the center"),
            (self.isomorphism, "induced map on center cosets is not an isomorphism"),
        ) if not holds]
        return "; ".join(failed) or None


def zeta(group: FiniteGroup, mu: FuzzySubset) -> ZetaCheck:
    """Map each g to the class of its inverse's label and verify the quotient law.

    The map is multiplicative onto the class table, its kernel is the center,
    and the map it induces on center cosets is a group isomorphism onto the
    class group.
    """
    inn = build_inn_group(group, mu)
    images = tuple(inn.class_of[group.inverses[g]] for g in group.elements)
    multiplicative = first_non_multiplicative(group, inn.table, images) is None
    surjective = set(images) == set(range(inn.table.order))
    kernel = ElementSubset.from_indices(
        group,
        (g for g in group.elements if images[g] == images[group.identity]),
    )
    kernel_is_center = kernel.mask == center(group).mask
    quotient, coset_map = center_quotient(group)
    # coset c -> image; well defined exactly when every coset has one image
    induced = sorted({(coset_map[x], images[x]) for x in group.elements})
    induced_iso = tuple(image for _, image in induced) if len(induced) == quotient.order else None
    isomorphism = induced_iso is not None and is_group_isomorphism(quotient, inn.table, induced_iso)
    return ZetaCheck(
        inn, images, multiplicative, surjective, kernel,
        kernel_is_center, quotient, coset_map, induced_iso, isomorphism,
    )


class ThetaCheck(Record):
    """The graded evaluation map onto the label-indexed family.

    Labels compose by reversed product, so the codomain is the opposite
    group on the same indices; theta(a, label b) = mu(a^-1 * b^-1).
    """

    fmap: FuzzyMap
    label_group: FiniteGroup
    hom_report: HomCheckReport
    images_are_inverses: bool
    kernel: ElementSubset
    kernel_trivial: bool
    one_one: bool
    onto: bool

    @property
    def ok(self) -> bool:
        return self.witness is None

    @property
    def witness(self) -> Optional[str]:
        """The facts that fail, joined; None when all hold."""
        failed = [text for holds, text in (
            (self.hom_report.verdict, f"sup condition fails: {self.hom_report.witness}"),
            (self.images_are_inverses, "fuzzy image of a is not the label of a^-1"),
            (self.kernel_trivial, f"kernel {self.kernel.indices} is not trivial"),
            (self.one_one, "not one-one"),
            (self.onto, "not onto"),
        ) if not holds]
        return "; ".join(failed) or None


def theta(group: FiniteGroup, mu: FuzzySubset) -> ThetaCheck:
    """Build and verify the graded evaluation map a -> label a^-1."""
    if mu.group != group:
        raise MuMismatch(f"mu is over {mu.group.name}, not {group.name}")
    require_valid_mu(mu)
    labels = opposite_group(group)
    t = group.table
    inv = group.inverses
    rows = (tuple(map(t[inv[a]].__getitem__, inv)) for a in group.elements)
    fmap = indexed_map(group, labels, mu.encoding, rows)
    images_ok = all(fmap.images[a] == inv[a] for a in group.elements)
    report = is_fuzzy_homomorphism(fmap)
    kernel = ElementSubset.from_indices(
        group, (a for a in group.elements if fmap.images[a] == labels.identity)
    )
    return ThetaCheck(
        fmap=fmap,
        label_group=labels,
        hom_report=report,
        images_are_inverses=images_ok,
        kernel=kernel,
        kernel_trivial=kernel.indices == (group.identity,),
        one_one=is_one_one(fmap),
        onto=is_onto(fmap),
    )
