"""Finite groups as dense Cayley tables over element indices 0..n-1.

Everything in this library is table driven: a group of order n is an n x n
array ``table`` with ``table[a][b]`` the index of the product ``a*b``.  The
builtin families come with fixed element orderings (documented on
:func:`builtin_group`) so grade vectors stored in files stay portable.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import FuzzautError, Record, derived_cache


class GroupError(FuzzautError):
    """Base class for Cayley-table validation failures."""


class NotLatinSquare(GroupError):
    pass


class NotAssociative(GroupError):
    pass


class NoIdentity(GroupError):
    pass


class NoInverse(GroupError):
    pass


class UnknownGroup(GroupError):
    pass


class GroupTooLarge(GroupError):
    pass


class NotNormal(GroupError):
    pass


class FiniteGroup(Record):
    """Validated group: order, Cayley table, identity and inverse table."""

    name: str
    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple[int, ...]

    @property
    def elements(self) -> range:
        return range(self.order)

    def element_order(self, x: int) -> int:
        k, acc = 1, x
        while acc != self.identity:
            acc = self.table[acc][x]
            k += 1
        return k

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


# -- associativity ------------------------------------------------------------


def picker(indices: Sequence[int]):
    """``seq -> tuple(seq[a] for a in indices)``, as one C-level call."""
    if len(indices) == 1:
        (a,) = indices
        return lambda seq: (seq[a],)
    return itemgetter(*indices)


def magma_generators(table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Greedy generators of a square table under its own binary product.

    Scans the elements in order and takes each one outside the closure of
    the generators taken so far.  The closure grows incrementally: every new
    member is multiplied on both sides with every member up to itself, so
    each unordered pair is multiplied once and the whole pass costs O(n^2)
    lookups.  Nothing is assumed of the table beyond entries in range, so
    this serves tables that are not yet known to be groups, where
    ``generating_sequence`` does not.
    """
    n = len(table)
    inside = [False] * n
    members: list[int] = []
    gens = []
    for x in range(n):
        if inside[x]:
            continue
        gens.append(x)
        inside[x] = True
        members.append(x)
        i = len(members) - 1
        while i < len(members) < n:  # a closure of all n elements is done
            y = members[i]
            row_y = table[y]
            for m in members[: i + 1]:
                for p in (row_y[m], table[m][y]):
                    if not inside[p]:
                        inside[p] = True
                        members.append(p)
            i += 1
    return tuple(gens)


def first_non_associative(table: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """First (a, b, c) in lexicographic order with (a*b)*c != a*(b*c), or None.

    The table must be square with entries in range.  The verdict comes from
    Light's test (Clifford and Preston, *The Algebraic Theory of Semigroups*
    I, section 1.2): (x*s)*z == x*(s*z) is checked for every s in
    ``magma_generators(table)`` and all x, z, as one comparison of row
    x*s with row x reindexed through row s.  This is exact.  The elements s
    that pass for all x, z are closed under the product: if s and t pass,
    (x*(s*t))*z = ((x*s)*t)*z = (x*s)*(t*z) = x*(s*(t*z)) = x*((s*t)*z).
    So passing on a generating set covers every triple, at |S|*n row
    comparisons instead of n^3 cells.  A table that fails is scanned again
    over all n^3 triples in lexicographic order, so the witness is the first
    violation of the exhaustive scan.
    """
    rows = tuple(map(tuple, table))
    for s in magma_generators(rows):
        through_s = picker(rows[s])  # row x -> (x*(s*z) for z)
        if any(rows[row_x[s]] != through_s(row_x) for row_x in rows):
            return _first_triple(rows)
    return None


def _first_triple(rows) -> Optional[tuple[int, int, int]]:
    """The exhaustive lexicographic scan behind ``first_non_associative``'s witness."""
    n = len(rows)
    for a in range(n):
        row_a = rows[a]
        for b in range(n):
            row_ab = rows[row_a[b]]
            row_b = rows[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    return a, b, c
    return None


def make_group(table: Sequence[Sequence[int]], name: Optional[str] = None) -> FiniteGroup:
    """Validate a Cayley table and return the finished group.

    Validation order is part of the error contract: shape and range first,
    then associativity, the identity and the inverses, so a corrupted product
    cell surfaces as the algebraic violation it causes.  ``NotAssociative``
    names the first (a, b, c) in lexicographic order; ``first_non_associative``
    decides over a generating set and rescans only a failing table.  In a
    finite monoid a right inverse is two-sided, and in a group every row and
    column is a bijection, so no Latin-square pass follows: it could not fail.
    """
    rows = tuple(tuple(map(int, row)) for row in table)
    n = len(rows)
    if n == 0:
        raise NotLatinSquare("empty table")
    for r, row in enumerate(rows):
        if len(row) != n:
            raise NotLatinSquare(f"row {r} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            c, v = next((c, v) for c, v in enumerate(row) if not 0 <= v < n)
            raise NotLatinSquare(f"entry at row {r}, column {c} is {v}, outside 0..{n - 1}")
    triple = first_non_associative(rows)
    if triple is not None:
        raise NotAssociative(f"(a*b)*c != a*(b*c) for (a, b, c) = {triple}")
    full = tuple(range(n))
    identity = next((e for e in full if rows[e] == full and all(rows[a][e] == a for a in full)), None)
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    for a, row in enumerate(rows):
        if identity not in row:
            raise NoInverse(f"element {a} has no two-sided inverse")
    return FiniteGroup(name or f"G{n}", n, rows, identity, tuple(row.index(identity) for row in rows))


@derived_cache
def _group_store() -> tuple[dict, set]:
    """Each table's canonical group, and the tables derived so far, for one campaign."""
    return {}, set()


def register_group(group: FiniteGroup) -> None:
    """Make ``group`` the canonical object of its table, unless one already is."""
    _group_store()[0].setdefault(group.table, group)


def derived_group(table: Sequence[Sequence[int]], name: str) -> FiniteGroup:
    """``make_group(table, name)`` the first time the table is derived, a registered group's too;
    then its canonical object, registered first, else derived first: only its name may differ."""
    canonical, derived = _group_store()
    rows = tuple(map(tuple, table))
    if rows not in derived:
        canonical.setdefault(rows, make_group(rows, name))
        derived.add(rows)
    return canonical[rows]


# -- builtin families -------------------------------------------------------

_CYCLIC_MAX = 16
_DIHEDRAL_MAX = 8
_SYMMETRIC_MAX = 4
# the largest order of a built or loaded group, that of Z16 x Z16; it keeps
# make_group's O(n^3) rescan of a table off larger groups
MAX_ORDER = 256
# the deepest a token's parentheses nest: 8 factors of order >= 2 reach MAX_ORDER,
# and order-1 factors, which never do, would otherwise nest past the recursion limit
_NESTING_MAX = 8

_ALIASES = {"Z": "cyclic", "z": "cyclic", "D": "dihedral", "d": "dihedral", "S": "symmetric",
            "s": "symmetric"}
_FAMILIES = frozenset(_ALIASES.values())


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def _dihedral_table(n: int) -> list[list[int]]:
    # element r^i s^j has index 2*i + j; s r^k = r^-k s
    def mul(i, j, k, l):
        return ((i + (k if j == 0 else -k)) % n) * 2 + (j + l) % 2

    return [[mul(a // 2, a % 2, b // 2, b % 2) for b in range(2 * n)] for a in range(2 * n)]


def _symmetric_table(n: int) -> list[list[int]]:
    # one-line permutations in lexicographic order; (p*q)(x) = p(q(x))
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    through = [picker(q) for q in perms]  # through[j](p) is p∘q for q = perms[j]
    return [[index[gather(p)] for gather in through] for p in perms]


_QUAT_AXIS = (
    (0, 1, 2, 3),
    (1, 0, 3, 2),
    (2, 3, 0, 1),
    (3, 2, 1, 0),
)
_QUAT_SIGN = (
    (1, 1, 1, 1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
    (1, 1, -1, -1),
)


def _quaternion_table() -> list[list[int]]:
    # ordering 1, -1, i, -i, j, -j, k, -k: index = 2*axis + (0 if positive)
    def mul(a, b):
        ax, sa = a // 2, -1 if a % 2 else 1
        bx, sb = b // 2, -1 if b % 2 else 1
        sign = sa * sb * _QUAT_SIGN[ax][bx]
        return 2 * _QUAT_AXIS[ax][bx] + (0 if sign > 0 else 1)

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def _direct_table(g1: FiniteGroup, g2: FiniteGroup) -> list[list[int]]:
    n2 = g2.order

    def mul(a, b):
        return g1.table[a // n2][b // n2] * n2 + g2.table[a % n2][b % n2]

    order = g1.order * n2
    return [[mul(a, b) for b in range(order)] for a in range(order)]


def _split_product_args(body: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1 :]
    raise UnknownGroup(f"direct_product needs two comma-separated factors, got {body!r}")


def _family_degree(tok: str) -> Optional[tuple[str, int]]:
    """``("cyclic", 4)`` for ``Z4``, ``z04`` or ``cyclic(4)``, and None for a token of
    no family; the degree is what ``str.isdecimal`` accepts, any script's digits."""
    if tok[:1] in _ALIASES and tok[1:].isdecimal():
        return _ALIASES[tok[0]], int(tok[1:])
    family, paren, rest = tok.partition("(")
    if paren and family in _FAMILIES and rest.endswith(")") and rest[:-1].isdecimal():
        return family, int(rest[:-1])
    return None


@lru_cache(maxsize=None)
def builtin_group(token: str) -> FiniteGroup:
    """Build a named group from its token.

    Supported tokens (with the fixed element orderings):

    * ``cyclic(n)`` / ``Zn`` for n <= 16 -- residues 0..n-1.
    * ``dihedral(n)`` / ``Dn`` for n <= 8 -- r^i s^j ordered by (i, j).
    * ``symmetric(n)`` / ``Sn`` for n <= 4 -- one-line permutations in
      lexicographic order, product (p*q)(x) = p(q(x)).
    * ``quaternion8`` / ``Q8`` -- 1, -1, i, -i, j, -j, k, -k.
    * ``klein4`` / ``V4`` -- pairs (0,0), (0,1), (1,0), (1,1) over Z2 x Z2.
    * ``direct_product(a,b)`` -- row-major pairs over the two factors, order <= 256,
      with parentheses nested at most 8 deep.
    """
    tok = token.strip()
    if tok in ("Q8", "q8"):
        tok = "quaternion8"
    if tok in ("V4", "v4"):
        tok = "klein4"

    family_degree = _family_degree(tok)
    if family_degree:
        family, n = family_degree
        if family == "cyclic":
            if not 1 <= n <= _CYCLIC_MAX:
                raise UnknownGroup(f"cyclic({n}) outside supported range 1..{_CYCLIC_MAX}")
            return make_group(_cyclic_table(n), name=f"Z{n}")
        if family == "dihedral":
            if not 1 <= n <= _DIHEDRAL_MAX:
                raise UnknownGroup(f"dihedral({n}) outside supported range 1..{_DIHEDRAL_MAX}")
            return make_group(_dihedral_table(n), name=f"D{n}")
        if not 1 <= n <= _SYMMETRIC_MAX:
            raise UnknownGroup(f"symmetric({n}) outside supported range 1..{_SYMMETRIC_MAX}")
        return make_group(_symmetric_table(n), name=f"S{n}")
    if tok == "quaternion8":
        return make_group(_quaternion_table(), name="Q8")
    if tok == "klein4":
        z2 = builtin_group("cyclic(2)")
        return make_group(_direct_table(z2, z2), name="V4")
    if tok.startswith("direct_product(") and tok.endswith(")"):
        depth = max(itertools.accumulate((ch == "(") - (ch == ")") for ch in tok))
        if depth > _NESTING_MAX:
            raise UnknownGroup(
                f"token nests parentheses {depth} deep, above the bound {_NESTING_MAX}"
            )
        left, right = _split_product_args(tok[len("direct_product(") : -1])
        g1, g2 = builtin_group(left), builtin_group(right)
        if g1.order * g2.order > MAX_ORDER:
            raise GroupTooLarge(
                f"direct_product({g1.name},{g2.name}) has order {g1.order * g2.order}, "
                f"above the bound {MAX_ORDER}"
            )
        return make_group(_direct_table(g1, g2), name=f"{g1.name}x{g2.name}")
    raise UnknownGroup(f"unrecognized group token {token!r}")


# -- structural subsets -----------------------------------------------------


@derived_cache
def center(group: FiniteGroup) -> frozenset[int]:
    """Elements commuting with everything."""
    t = group.table
    return frozenset(z for z in group.elements if all(t[z][x] == t[x][z] for x in group.elements))


@derived_cache
def conjugations(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Row g is the permutation x -> g^-1 x g: the one conjugation table that
    ``is_inner``, Lemma 4.1, the classes and normality read."""
    t = group.table
    return tuple(tuple(t[y][g] for y in t[group.inverses[g]]) for g in group.elements)


@derived_cache
def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Partition of the elements into conjugation orbits, sorted by least member."""
    rows = conjugations(group)
    seen = set()
    classes = []
    for x in group.elements:
        if x in seen:
            continue
        orbit = {row[x] for row in rows}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: c[0])
    return tuple(classes)


@derived_cache
def class_index(group: FiniteGroup) -> tuple[int, ...]:
    """For each element, the index of its conjugacy class."""
    out = [0] * group.order
    for i, cls in enumerate(conjugacy_classes(group)):
        for x in cls:
            out[x] = i
    return tuple(out)


def is_subgroup(group: FiniteGroup, members: Iterable[int]) -> bool:
    """True iff the indices form a subgroup; an index outside 0..n-1 raises
    ``GroupError``, naming the least one.  A set holding e is a subgroup exactly
    when the closure of a generating set of it, taken greedily, stays inside it."""
    s = frozenset(members)
    outside = [i for i in s if not 0 <= i < group.order]
    if outside:
        raise GroupError(f"element index {min(outside)} outside 0..{group.order - 1}")
    if group.identity not in s:
        return False
    gens, span = (), frozenset({group.identity})
    for x in s:
        if x not in span:
            gens += (x,)
            span = closure(group, gens)
            if not span <= s:
                return False
    return True


def is_normal_subgroup(group: FiniteGroup, members: Iterable[int]) -> bool:
    """True iff the indices form a subgroup closed under conjugation.

    Conjugation is tested by the elements of ``generating_sequence(group)``
    only, each as one gather of its row of ``conjugations``: |S|*|N| lookups
    instead of n*|N|.  This is exact, because conjugation by a product is
    the composite of the conjugations by its factors, and in a finite group
    every element is a positive word in the generators.
    """
    s = frozenset(members)
    if not is_subgroup(group, s):
        return False
    rows, pick = conjugations(group), picker(tuple(s))
    return all(s.issuperset(pick(rows[g])) for g in generating_sequence(group))


def quotient_group(
    group: FiniteGroup, normal: Iterable[int]
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The cosets' Cayley table as a ``derived_group`` and the element -> coset surjection."""
    members = tuple(sorted(frozenset(normal)))
    if not is_normal_subgroup(group, members):
        raise NotNormal(f"{members} is not a normal subgroup of {group.name}")
    t = group.table
    coset_key = {}
    cosets = []
    for x in group.elements:
        key = frozenset(t[x][k] for k in members)
        if key not in coset_key:
            coset_key[key] = min(key)
            cosets.append(key)
    cosets.sort(key=min)
    index_of = {c: i for i, c in enumerate(cosets)}
    coset_map = [0] * group.order
    for c in cosets:
        for x in c:
            coset_map[x] = index_of[c]
    reps = [min(c) for c in cosets]
    table = [[coset_map[t[a][b]] for b in reps] for a in reps]
    q = derived_group(table, name=f"{group.name}/N{len(members)}")
    return q, tuple(coset_map)


@derived_cache
def center_quotient(group: FiniteGroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """``quotient_group`` by the center: G/Z(G), a ``derived_group``, and its coset map."""
    return quotient_group(group, center(group))


# -- subgroup enumeration and series ----------------------------------------


def closure(group: FiniteGroup, generators: Iterable[int]) -> frozenset[int]:
    """Subgroup generated by the given elements."""
    gens = tuple(generators)
    t = group.table
    seen = {group.identity}
    work = [group.identity]
    while work:
        a = work.pop()
        for g in gens:
            b = t[a][g]
            if b not in seen:
                seen.add(b)
                work.append(b)
    return frozenset(seen)


@derived_cache
def generating_sequence(group: FiniteGroup) -> tuple[int, ...]:
    """A short generating set, built greedily.

    Each step adds the element whose closure with the elements chosen so far
    is largest, the smaller index on a tie.  The candidates are scanned in
    index order, and the scan stops at the first whose closure is the whole
    group, as a later one could only tie with it; the winner's closure is the
    next step's span.  S4 and Q8 get two generators.  The trivial group gets
    ``(identity,)``, so the sequence is never empty.
    """
    gens: tuple[int, ...] = ()
    span = closure(group, gens)
    while len(span) < group.order:
        best_span = span
        for x in group.elements:
            if x not in span:
                grown = closure(group, gens + (x,))
                if len(grown) > len(best_span):
                    best, best_span = x, grown
                    if len(grown) == group.order:
                        break
        gens += (best,)
        span = best_span
    return gens or (group.identity,)


def _closed_extensions(
    group: FiniteGroup, steps: Sequence[tuple[int, ...]]
) -> tuple[frozenset[int], ...]:
    """Subgroups reached from {e} by closing ``sub`` with one step at a time.

    Every found subgroup is closed together with every step not inside it,
    to a fixpoint; the result is sorted by size, then by sorted members.
    """
    found = {closure(group, ())}
    frontier = list(found)
    while frontier:
        sub = frontier.pop()
        for step in steps:
            if sub.issuperset(step):
                continue
            ext = closure(group, tuple(sorted(sub)) + step)
            if ext not in found:
                found.add(ext)
                frontier.append(ext)
    return tuple(sorted(found, key=lambda s: (len(s), tuple(sorted(s)))))


@derived_cache
def all_subgroups(group: FiniteGroup) -> tuple[frozenset[int], ...]:
    """Every subgroup: each is generated by adding its elements one at a time."""
    return _closed_extensions(group, [(g,) for g in group.elements])


@derived_cache
def normal_subgroups(group: FiniteGroup) -> tuple[frozenset[int], ...]:
    """Normal subgroups, generated by adding conjugacy classes one at a time.

    The subgroup generated by a union of classes is normal, and a normal
    subgroup is the union of its classes, so closing with whole classes
    reaches every normal subgroup and nothing else.
    """
    return _closed_extensions(group, conjugacy_classes(group))


def derived_series(group: FiniteGroup) -> tuple[frozenset[int], ...]:
    """Iterated commutator subgroups, ending at the last repeated term."""
    t = group.table
    inv = group.inverses
    series = [frozenset(group.elements)]
    while True:
        current = series[-1]
        comms = {t[t[inv[x]][inv[y]]][t[x][y]] for x in current for y in current}
        nxt = closure(group, sorted(comms))
        if nxt == current:
            break
        series.append(nxt)
        if len(nxt) == 1:
            break
    return tuple(series)


@derived_cache
def opposite_group(group: FiniteGroup) -> FiniteGroup:
    """Same carrier with reversed multiplication a*b := b.a, as a ``derived_group``."""
    n = group.order
    table = [[group.table[b][a] for b in range(n)] for a in range(n)]
    return derived_group(table, name=f"{group.name}^op")


# -- automorphisms ----------------------------------------------------------

_AUT_ORDER_BOUND = 24


@derived_cache
def crisp_automorphisms(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All bijections with f(ab) = f(a)f(b), one candidate per generator-image choice.

    An automorphism is fixed by the images h_i of the generators g_i of
    ``generating_sequence(group)``, and it keeps the order of every element:
    of each g_i, and of each product g_i.g_j.  The choices are built one
    generator at a time, and a choice with ord(h_i.h_j) != ord(g_i.g_j) for
    some i < j is dropped before it grows, so only impossible candidates go.
    Every remaining choice is extended along a spanning tree of the Cayley
    graph, f(a.g_i) = f(a).h_i, and kept when the extension is an isomorphism.
    """
    if group.order > _AUT_ORDER_BOUND:
        raise GroupTooLarge(f"order {group.order} exceeds the exhaustive bound {_AUT_ORDER_BOUND}")
    t = group.table
    gens = generating_sequence(group)
    tree: list[tuple[int, int, int]] = []  # (a, i, a.g_i), parents first
    reached = [group.identity]
    for a in reached:  # breadth first; the loop visits what it appends
        for i, g in enumerate(gens):
            b = t[a][g]
            if b not in reached:
                reached.append(b)
                tree.append((a, i, b))
    orders = [group.element_order(x) for x in group.elements]
    candidates: list[tuple[int, ...]] = [()]
    for j, g in enumerate(gens):
        wanted = [orders[t[gi][g]] for gi in gens[:j]]  # ord(g_i.g_j) for each i < j
        candidates = [
            images + (h,) for images in candidates for h in group.elements
            if orders[h] == orders[g]
            and all(orders[t[hi][h]] == o for hi, o in zip(images, wanted))
        ]
    found = []
    for images in candidates:
        mapping = [group.identity] * group.order
        for a, i, b in tree:
            mapping[b] = t[mapping[a]][images[i]]
        if is_group_isomorphism(group, group, mapping):
            found.append(tuple(mapping))
    return tuple(sorted(found))


def first_non_multiplicative(
    g: FiniteGroup, h: FiniteGroup, mapping: Sequence[int]
) -> Optional[tuple[int, int]]:
    """The first (a, b) in lexicographic order with mapping[a*b] != mapping[a]*mapping[b].

    The verdict comes from the pairs (s, b) with s in
    ``generating_sequence(g)``, which is exact.  The pairs (s, e) force
    mapping[e] = e, since h cancels.  For a = s1...sk, a positive word in the
    generators, mapping[a*b] = mapping[s1]...mapping[sk]*mapping[b], and with
    b = e this gives mapping[a] = mapping[s1]...mapping[sk], so
    mapping[a*b] = mapping[a]*mapping[b].  Each generator s is decided by two
    gathers, mapping[s*b] for every b against mapping[s]*mapping[b] for every
    b, read off row s of g's table and row mapping[s] of h's.  A failing
    mapping is rescanned pair by pair to name its pair.
    """
    tg, th = g.table, h.table
    through = picker(mapping)  # a row of h's table -> its entries at mapping[b], for every b
    if all(picker(tg[s])(mapping) == through(th[mapping[s]]) for s in generating_sequence(g)):
        return None
    return next(
        (a, b) for a in g.elements for b in g.elements
        if mapping[tg[a][b]] != th[mapping[a]][mapping[b]]
    )


def is_group_isomorphism(g: FiniteGroup, h: FiniteGroup, mapping: Sequence[int]) -> bool:
    """True iff ``mapping`` is a bijective, multiplicative map from g to h."""
    m = tuple(mapping)
    if g.order != h.order or len(m) != g.order:
        return False
    if sorted(m) != list(range(h.order)):
        return False
    return first_non_multiplicative(g, h, m) is None
