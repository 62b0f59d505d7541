"""The fuzzy homomorphism predicate, kernels, and lifted constructions.

A fuzzy map f between groups is a fuzzy homomorphism when, for every pair
x1, x2 and every codomain element y, the grade f(x1*x2, y) equals the sup of
f(x1, y1) ^ f(x2, y2) over all factorizations y = y1*y2.

Write R_x for row x of f and (A * B)(y) for the sup of A(y1) ^ B(y2) over
y = y1*y2, so that the condition reads R_{x1*x2} = R_x1 * R_x2.  Over a group
codomain * is associative, because min distributes over max.  So if
R_{g*x} = R_g * R_x holds for every g in a generating set S of the domain and
every x, it holds for every pair, by induction on the length of a positive
word in S; in a finite group positive words reach every element.  The check
tests |S|*n pairs instead of n*n and stays exact: nothing is sampled.  Any
generating set will do, so a pass takes the one whose rows it is most likely
to have multiplied already (``_pass_generators``).

The check reads the rows as the integer rank rows that every ``FuzzyMap``
stores as its cells (``maps`` derives them once per map, never per check).  The rank map
is strictly monotone, so min, sup and equality give the same verdicts on
ranks as on grades, and the product of two rank rows depends only on the two
integer tuples and the codomain's table.  Samples built from one membership
function share a few rows, so each codomain numbers the rank rows it has
seen and keeps a memo from a pair of row ids to the row id of their
product; a generator is then decided by comparing two tuples of row ids.
It also keeps the (domain, row ids) of each map that passed, which holds
again at once, and the generator rows of its last pass over each domain.

Products are equivariant under translation.  Write (tau_c A)(y) = A(c^-1 y)
and (rho_d B)(y) = B(y d^-1); substituting y1 -> c^-1 y1 in the sup gives
(tau_c A) * (rho_d B) = tau_c rho_d (A * B) for any rows A, B and any c, d.
So a product R_g * R_x missing from the memo is read off the core A * B of
the centred rows A(y) = R_g(c y) and B(y) = R_x(y d), with c and d the fuzzy
images of g and x: (R_g * R_x)(y) = (A * B)(c^-1 y d^-1), two gathers.  The
identity holds for every c and d, so the verdict does not rest on the
images being right.  Every lift through a normal mu has translates of mu as
its rows, and every one of them centres to mu itself, so each mu costs one
core.  Cores are kept under the row ids of their two centred rows, and the
core's row id goes into the memo as the product of those rows.  Like every
derived fact, a codomain's stores live until ``errors.clear_derived`` runs.

A core missing from ``cores`` is computed by ``_row_product`` as the literal
sup, one cell at a time by ``_sup``, reading the cofactors y1^-1 y of each y
as a column of the codomain's table.  ``_first_violation``, the literal
scan that names the witness of a rejected map, reads its cells through the
same ``_sup``, so ``homs`` has one implementation of the sup.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, product, repeat
from operator import itemgetter
from typing import Optional, Sequence

from .errors import FuzzautError, Record, Verdict, derived_cache
from .groups import (
    FiniteGroup,
    closure,
    first_non_multiplicative,
    generating_sequence,
    is_normal_subgroup,
    picker,
)
from .maps import FuzzyMap, _built_map, is_one_one, unit_rank
from .subsets import FuzzySubset, SubsetError, require_valid_mu


class HomError(FuzzautError):
    pass


class NotHomomorphism(HomError):
    pass


class OracleRejected(HomError):
    """A lifted construction failed the homomorphism oracle; never dropped."""


class PassesDisagree(RuntimeError):
    """The generator pass rejected a map that the full scan passes; a library defect."""


class HomWitness(Record):
    x1: int
    x2: int
    y: int
    lhs: Fraction
    rhs: Fraction

    def __str__(self) -> str:
        return (
            f"f(x1*x2, y) = {self.lhs} but sup over factorizations = {self.rhs} "
            f"at (x1, x2, y) = ({self.x1}, {self.x2}, {self.y})"
        )


class HomCheckReport(Record):
    verdict: bool
    witness: Optional[HomWitness] = None

    def __bool__(self) -> bool:
        return self.verdict


_HOLDS = HomCheckReport(True)  # records are immutable, so every passing check shares one


def is_fuzzy_homomorphism(f: FuzzyMap) -> HomCheckReport:
    """Exact check of the sup-over-factorizations condition.

    The verdict is ``_failing_generator_pair``'s generator pass.  A rejected
    map is scanned again over every (x1, x2, y) in lexicographic order, so
    its witness is the first violation of the exhaustive scan; its grades
    come back from the encoding's value list.  A scan that finds no
    violation contradicts the generator pass, a library defect, and raises
    ``PassesDisagree``.
    """
    failing = _failing_generator_pair(f)
    if failing is None:
        return _HOLDS
    values, rows = f.encoding
    dt = f.domain.table
    everything = product(range(len(rows)), repeat=2)
    found = _first_violation(rows, dt, _row_tables(f.codomain).columns, everything)
    if found is None:
        g, x = failing
        raise PassesDisagree(
            f"generator {g}, row {x}: R_g * R_x differs from row {dt[g][x]}, "
            "but the full scan finds no violation"
        )
    x1, x2, y, lhs, rhs = found
    return HomCheckReport(False, HomWitness(x1, x2, y, values[lhs], values[rhs]))


def _failing_generator_pair(f: FuzzyMap) -> Optional[tuple[int, int]]:
    """The first pair (g, x) with R_{g*x} != R_g * R_x, g over the generators
    of ``_pass_generators``, or None if f is a fuzzy homomorphism: the
    verdict alone, with no witness scan.

    Any generating set suffices (see the module docstring).  The codomain's
    ``memo`` (see ``_RowTables``) maps the ``row_ids`` of R_g and R_x to the
    row id of R_g * R_x, so generator g is decided by one comparison of two
    tuples gathered at C level: the ids of the rows R_{g*x} and the memo's
    products of ids[g] with each ids[x].  Only a generator that fails, or
    whose products are not all in the memo, is walked one x at a time, which
    returns its first failing x.  A product missing from the memo is
    translated: with c = f.images[g] and d = f.images[x], the centred rows
    A(y) = R_g(c y) and B(y) = R_x(y d) get row ids, their core A * B is
    looked up in ``cores`` under those ids and computed by ``_row_product``
    only when it is new, and (R_g * R_x)(y) = (A * B)(c^-1 y d^-1) gets a
    row id, kept under R_g's and R_x's.  This is exact for any c and d, so a
    map whose ``images`` are wrong still gets the verdict of its cells;
    images that are not codomain elements, which only a hand-built map can
    have, are replaced by the identity.  A passing map's (domain, row ids)
    is kept in ``passed``, so the same check again holds without a pass.

    Row ids are handed out from ``len(row_ids)``, and only ``clear_derived``
    empties the stores, so the ids in a kept key still name its rows.
    """
    rows = f.encoding[1]
    tables = _row_tables(f.codomain)
    memo, row_ids, domain = tables.memo, tables.row_ids, f.domain
    ids = tuple(map(row_ids.get, rows))
    if (domain, ids) in tables.passed:
        return None
    if None in ids:
        ids = tuple([row_ids.setdefault(r, len(row_ids)) for r in rows])
    images, elements = f.images, f.codomain.elements
    if len(images) != len(rows) or not all(map(elements.__contains__, images)):
        images = (f.codomain.identity,) * len(rows)  # a hand-built map's; any shift is exact
    dt = domain.table
    for g in _pass_generators(domain, ids, generating_sequence(domain), tables):
        ig, dg = ids[g], dt[g]
        if picker(dg)(ids) == tuple(map(memo.get, zip(repeat(ig), ids))):
            continue
        rg, c = rows[g], images[g]
        for x, ix in enumerate(ids):
            prod = memo.get((ig, ix))
            if prod is None:
                moved = _translated_product(rg, c, rows[x], images[x], tables)
                prod = memo[ig, ix] = row_ids.setdefault(moved, len(row_ids))
            if prod != ids[dg[x]]:
                return g, x
    tables.passed.add((domain, ids))
    return None


def _pass_generators(domain: FiniteGroup, ids: tuple, gens: tuple, tables: _RowTables) -> tuple:
    """The generators of a pass over the row ids ``ids``: the first elements
    holding the generator rows of the last pass over ``domain``, when the map
    has all those rows and the elements generate the domain, else ``gens``.

    For lifts through one mu, the rows of phi^-1(S) are the first lift's
    generator rows, so every later lift reads the products that lift put in
    the memo.  ``tables.generators`` keeps the row ids of the set returned,
    so it changes only when ``gens`` is returned.
    """
    kept = tables.generators.get(domain)
    if kept is not None and all(map(ids.__contains__, kept)):
        held = tuple(map(ids.index, kept))
        if len(closure(domain, held)) == domain.order:
            return held
    tables.generators[domain] = picker(gens)(ids)
    return gens


class _RowTables:
    """One codomain's tables and the stores of ``is_fuzzy_homomorphism``.

    ``columns[y][y1]`` is y1^-1 y, the y2 with y1*y2 = y, so column y is what
    ``_sup`` reads for the cell y of a product.  ``left[c]`` takes a row R to
    y -> R(c y) through row c of the table, ``right[d]`` takes it to
    y -> R(y d) through column d, and ``inverse[c]`` is c^-1; a translation
    by (c, d) is two of these moves, so nothing is kept per pair.

    The stores: ``row_ids`` maps a rank row to its id, which names its
    content in this codomain; ``memo`` maps a pair of row ids to the row id
    of their product; ``cores`` maps the row ids of two centred rows to
    their core, whose row id ``memo`` holds under the same pair, so a core
    serves as the product of its two centred rows as well; ``passed`` holds
    the (domain, row ids) of each map that passed, and ``generators`` the
    row ids of the generators of the last pass over each domain.  All five
    live until ``errors.clear_derived`` drops ``_row_tables``.
    """

    def __init__(self, codomain: FiniteGroup) -> None:
        ct, cinv = codomain.table, codomain.inverses
        self.columns = tuple(zip(*(ct[cinv[y1]] for y1 in codomain.elements)))
        # itemgetter of one index returns the item; over one element every move is the identity
        move = (lambda index: itemgetter(*index)) if codomain.order > 1 else (lambda index: tuple)
        self.left, self.right, self.inverse = tuple(map(move, ct)), tuple(map(move, zip(*ct))), cinv
        self.memo, self.row_ids, self.cores, self.passed, self.generators = {}, {}, {}, set(), {}


_row_tables = derived_cache(_RowTables)


def _translated_product(rg, c, rx, d, tables: _RowTables) -> tuple[int, ...]:
    """R_g * R_x = tau_c rho_d (A * B) for the centred rows A(y) = R_g(c y) and
    B(y) = R_x(y d), whose core A * B comes from ``cores`` or ``_row_product``."""
    left, right, inverse, row_ids = tables.left, tables.right, tables.inverse, tables.row_ids
    a, b = left[c](rg), right[d](rx)
    key = row_ids.setdefault(a, len(row_ids)), row_ids.setdefault(b, len(row_ids))
    core = tables.cores.get(key)
    if core is None:
        core = tables.cores[key] = _row_product(a, b, tables.columns)
        tables.memo[key] = row_ids.setdefault(core, len(row_ids))
    return left[inverse[c]](right[inverse[d]](core))  # y -> core(c^-1 y d^-1)


def _sup(a: Sequence[int], b: Sequence[int], column: Sequence[int]) -> int:
    """max over y1 of min(a(y1), b(column[y1])): the cell y of the product
    a * b when ``column`` is the column of y in ``_RowTables.columns``."""
    best = -1
    for v, y2 in zip(a, column):
        w = b[y2]
        if w < v:
            v = w
        if v > best:
            best = v
    return best


def _row_product(rg: Sequence[int], rx: Sequence[int], columns: tuple) -> tuple[int, ...]:
    """(R_g * R_x)(y) = max over y1 of min(R_g(y1), R_x(y1^-1 y)), for every y;
    ``columns`` is ``_RowTables.columns`` of the codomain."""
    return tuple([_sup(rg, rx, column) for column in columns])


def _first_violation(rows, dt, columns, pairs):
    """First (x1, x2, y, rank of f(x1*x2, y), rank of the sup) off the condition."""
    for x1, x2 in pairs:
        r1 = rows[x1]
        r2 = rows[x2]
        rp = rows[dt[x1][x2]]
        for y, column in enumerate(columns):
            best = _sup(r1, r2, column)
            if rp[y] != best:
                return x1, x2, y, rp[y], best
    return None


def kernel(f: FuzzyMap) -> frozenset[int]:
    """Elements whose fuzzy image is the codomain identity."""
    report = is_fuzzy_homomorphism(f)
    if not report:
        raise NotHomomorphism(str(report.witness))
    e2 = f.codomain.identity
    return frozenset(x for x in f.domain.elements if f.images[x] == e2)


_THEOREM_2_1_FACTS = ("images multiply", "identity pair has grade 1", "inverses map to inverses",
                      "unit entries invert")


def check_theorem_2_1(f: FuzzyMap) -> Verdict:
    """Four structural facts about a fuzzy homomorphism, checked exhaustively.

    1. fuzzy images multiply; 2. the identity maps to the identity with grade
    1; 3. the image of an inverse is the inverse of the image; 4. unit
    entries are closed under simultaneous inversion.  The witness names the
    failed facts in this order, as ``_THEOREM_2_1_FACTS`` does.

    Fact 1 is tested over a generating set of the domain
    (``groups.first_non_multiplicative``).  On a lift through a valid mu,
    fact 1 is exactly the sup condition (see ``lift_hom``).  Facts 2 and 4
    read the rank rows: a cell has grade 1 exactly when its rank is
    ``maps.unit_rank`` of the values.  When every row holds one such cell,
    as every validated map's does, fact 4 reads it by ``row.index`` and
    tests its inverse cell, n row calls; otherwise every cell of every row
    is scanned.  Neither path reads ``f.images``.
    """
    g, h = f.domain, f.codomain
    images = f.images
    values, ranks = f.encoding
    top = unit_rank(values)
    ginv, hinv = g.inverses, h.inverses
    p1 = first_non_multiplicative(g, h, images) is None
    p2 = ranks[g.identity][h.identity] == top
    p3 = picker(images)(hinv) == picker(ginv)(images)
    if all(row.count(top) == 1 for row in ranks):
        p4 = all(ranks[ginv[x]][hinv[row.index(top)]] == top for x, row in enumerate(ranks))
    else:
        p4 = all(
            ranks[ginv[x]][hinv[y]] == top
            for x, row in enumerate(ranks)
            for y in compress(h.elements, map(top.__eq__, row))
        )
    failed = [name for name, holds in zip(_THEOREM_2_1_FACTS, (p1, p2, p3, p4)) if not holds]
    return (False, f"failed {', '.join(failed)}") if failed else (True, None)


def check_theorem_2_2(f: FuzzyMap) -> Verdict:
    """Kernel normality plus the injectivity criterion: the kernel is a normal
    subgroup, and f is one-one exactly when the kernel is trivial.  The
    witness prints the sorted kernel and the three facts.  A map that is no
    fuzzy homomorphism has no kernel: ``kernel`` raises ``NotHomomorphism``."""
    k = kernel(f)
    normal, one_one = is_normal_subgroup(f.domain, k), is_one_one(f)
    trivial = k == {f.domain.identity}
    if normal and one_one == trivial:
        return True, None
    return False, f"kernel={tuple(sorted(k))} normal={normal} one_one={one_one} trivial={trivial}"


def lift_hom(phi: Sequence[int], mu_prime: FuzzySubset, domain: FiniteGroup) -> FuzzyMap:
    """Grade a crisp homomorphism phi through a membership function.

    The lifted map is f(x, y) = mu'(phi(x)^-1 * y) over the codomain carrying
    mu', that is f = f_e . phi, built as ``maps.compose_maps`` reindexes a
    map: row x is row phi(x) of ``mu'.f_e``'s rank rows, so every lift
    through mu' shares those row objects, and its fuzzy image is
    ``mu'.f_e.images[phi(x)]``, the unit position one scan found in that
    row.  A valid mu' is pointed, so each of those rows has exactly one.

    phi is decided through the homomorphism oracle's verdict
    (``_failing_generator_pair``, the generator pass of
    ``is_fuzzy_homomorphism``).  Write T_c for the row y -> mu'(c^-1 y), so
    that row x of f is T_phi(x).  For a valid mu', T_c * T_d = T_cd, because
    mu' * mu' = mu' and mu' is normal, and T_c = T_d forces c = d, because
    mu' is pointed.  So the sup condition T_phi(x1*x2) = T_phi(x1) * T_phi(x2)
    holds exactly when phi is multiplicative, and
    ``groups.first_non_multiplicative`` runs only after the oracle rejects
    the lift, to name the first failing pair.  A phi it finds no pair for
    leaves the rejection standing: the witness scan names it in
    ``OracleRejected``, never silently dropped.  Through an invalid mu' a phi
    that is not multiplicative raises ``NotHomomorphism`` before mu' is
    rejected.
    """
    codomain = mu_prime.group
    phi = tuple(phi)
    if len(phi) != domain.order or any(not 0 <= v < codomain.order for v in phi):
        raise HomError(f"phi must map {domain.name} into {codomain.name}")
    try:
        require_valid_mu(mu_prime)
    except SubsetError:
        _require_multiplicative(domain, codomain, phi)
        raise
    pick, (values, rank_rows) = picker(phi), mu_prime.f_e.encoding
    f = _built_map(domain, codomain, pick(mu_prime.f_e.images), (values, pick(rank_rows)))
    if _failing_generator_pair(f) is not None:
        _require_multiplicative(domain, codomain, phi)
        raise OracleRejected(str(is_fuzzy_homomorphism(f).witness))
    return f


def _require_multiplicative(domain: FiniteGroup, codomain: FiniteGroup, phi) -> None:
    pair = first_non_multiplicative(domain, codomain, phi)
    if pair is not None:
        raise NotHomomorphism(f"phi is not multiplicative at (a, b) = {pair}")
