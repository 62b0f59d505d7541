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
tests |S|*n pairs instead of n*n and stays exact: nothing is sampled.

The check reads the rows as the integer rank rows that every ``FuzzyMap``
stores as its cells (``maps`` derives them once per map, never per check).  The rank map
is strictly monotone, so min, sup and equality give the same verdicts on
ranks as on grades, and the product of two rank rows depends only on the two
integer tuples and the codomain's table.  Samples built from one membership
function share a few rows, so each codomain keeps a memo of row products
keyed by a pair of ids from its table of rank rows, and the (domain, row ids)
of each map that passed, which holds again at once.

Products are equivariant under translation.  Write (tau_c A)(y) = A(c^-1 y)
and (rho_d B)(y) = B(y d^-1); substituting y1 -> c^-1 y1 in the sup gives
(tau_c A) * (rho_d B) = tau_c rho_d (A * B) for any rows A, B and any c, d.
So a product R_g * R_x missing from the memo is read off the core A * B of
the centred rows A(y) = R_g(c y) and B(y) = R_x(y d), with c and d the fuzzy
images of g and x: (R_g * R_x)(y) = (A * B)(c^-1 y d^-1), two gathers.  The
identity holds for every c and d, so the verdict does not rest on the
images being right.  Every lift through a normal mu has translates of mu as
its rows, and every one of them centres to mu itself, so each mu costs one
core.  The centred rows get row ids like any other, kept per (row id,
shift), so the core is memoized as a product of rows.  The memo, row ids,
centred-row ids and passing keys are cleared before a check that could take
them past ``ROW_PRODUCT_MEMO_BOUND`` entries, and ``_row_tables`` keeps the
last ``_CODOMAINS_KEPT`` codomains.

A core missing from the memo is computed by ``_row_product`` one bit
plane at a time, in byte and big-integer operations.  Plane p holds the
levels 8p+1 to 8p+8: a rank r becomes the thermometer byte with
clamp(r - 8p, 0, 8) low bits set.  Clamping is monotone, so it commutes with
min and max, and the clamps of r over all planes add up to r.  On
thermometer bytes max is OR and min with a constant c is AND with 2^c - 1,
so each plane of the product is the OR, over y1, of R_x's bytes gathered
through the cofactor row of y1 and masked to R_g(y1)'s clamp; the popcount
of each byte gives that plane's levels back.  This is Zadeh's representation
of a fuzzy set by its level sets: the level set of a sup-min product is the
product of the level sets.  ``_first_violation`` stays the literal scan, and
it names the witness of a rejected map.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from operator import add, itemgetter
from typing import Optional, Sequence

from .errors import FuzzautError, Record
from .groups import (
    ElementSubset,
    FiniteGroup,
    first_non_multiplicative,
    generating_sequence,
    is_normal_subgroup,
    picker,
)
from .maps import FuzzyMap, is_one_one, ranked_map, unit_rank
from .subsets import FuzzySubset, require_valid_mu

ROW_PRODUCT_MEMO_BOUND = 4096  # entries kept in a codomain's five stores (see _row_tables)
# one instance's checks touch at most 5 codomains on the default matrix and S4, 7 on Z2xQ8
_CODOMAINS_KEPT = 16
_POPCOUNT = bytes(map(int.bit_count, range(256)))  # byte -> its number of set bits
_THERMOMETER = (0, 1, 3, 7, 15, 31, 63, 127, 255)  # level count c -> c low bits set


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

    def __iter__(self):
        """Unpacks as ``(verdict, witness)``, the shape of every law checker."""
        return iter((self.verdict, self.witness))


_HOLDS = HomCheckReport(True)  # records are immutable, so every passing check shares one


def is_fuzzy_homomorphism(f: FuzzyMap) -> HomCheckReport:
    """Exact check of the sup-over-factorizations condition.

    The verdict comes from the pairs (g, x) with g in
    ``generating_sequence(f.domain)``, which suffice (see the module
    docstring): R_{g*x} is compared with the product R_g * R_x of f's rank
    rows, looked up in the codomain's memo by row ids.  A product missing
    from it is translated: with c = f.images[g] and d = f.images[x], the
    centred rows A(y) = R_g(c y) and B(y) = R_x(y d) get row ids, their core
    A * B is looked up under those ids and computed by ``_row_product`` only
    when it is new, and (R_g * R_x)(y) = (A * B)(c^-1 y d^-1) is stored
    under R_g's and R_x's ids.  This is exact for any c and d, so a map whose
    ``images`` are wrong still gets the verdict of its cells; images that are
    not codomain elements, which only a hand-built map can have, are
    replaced by the identity.  A passing
    map's (domain, row ids) is kept, so the same check again holds without a
    pass.  A pass over |S| generators and n rows adds at most 2|S|n products
    and cores, 2n + |S| row ids, n + |S| centred-row ids and one passing key,
    fewer than (2|S| + 3)(n + 1) entries; the stores are cleared before a
    pass that could take them to ``ROW_PRODUCT_MEMO_BOUND``.  A rejected map
    is scanned again over every (x1, x2, y) in lexicographic order, so its
    witness is the first violation of the exhaustive scan; its grades come
    back from the encoding's value list.  A scan that finds no violation
    contradicts the generator pass, a library defect, and raises
    ``PassesDisagree``.
    """
    values, rows = f.encoding
    tables = _row_tables(f.codomain)
    cofactor, _, _, *stores = tables
    memo, row_ids, _, _, passed = stores
    if (f.domain, tuple(map(row_ids.get, rows))) in passed:
        return _HOLDS
    dt = f.domain.table
    gens = generating_sequence(f.domain)
    if sum(map(len, stores)) + (2 * len(gens) + 3) * (len(rows) + 1) >= ROW_PRODUCT_MEMO_BOUND:
        for store in stores:
            store.clear()
    ids = tuple([row_ids.setdefault(r, len(row_ids)) for r in rows])
    images, elements = f.images, f.codomain.elements
    if len(images) != len(rows) or not all(map(elements.__contains__, images)):
        images = (f.codomain.identity,) * len(rows)  # a hand-built map's; any shift is exact
    for g in gens:
        rg, ig, dg, c = rows[g], ids[g], dt[g], images[g]
        for x, (rx, ix) in enumerate(zip(rows, ids)):
            prod = memo.get((ig, ix))
            if prod is None:
                prod = memo[ig, ix] = _translated_product(rg, ig, c, rx, ix, images[x], tables)
            if prod != rows[dg[x]]:
                everything = product(range(len(rows)), repeat=2)
                found = _first_violation(rows, dt, cofactor, everything)
                if found is None:
                    raise PassesDisagree(
                        f"generator {g}, row {x}: R_g * R_x differs from row {dg[x]}, "
                        "but the full scan finds no violation"
                    )
                x1, x2, y, lhs, rhs = found
                return HomCheckReport(False, HomWitness(x1, x2, y, values[lhs], values[rhs]))
    passed.add((f.domain, ids))
    return _HOLDS


@lru_cache(maxsize=_CODOMAINS_KEPT)
def _row_tables(codomain: FiniteGroup) -> tuple[tuple, tuple, tuple, dict, dict, dict, dict, set]:
    """The codomain's cofactor table, what ``_row_product`` reads of it, its
    translations, and the stores of ``is_fuzzy_homomorphism``: the
    row-product memo, the row ids, the ids of left- and right-centred rows
    and the keys of the maps that passed.

    ``cofactor[y1][y]`` is the y2 with y1*y2 = y.  Slot 1 holds the cofactor
    rows in the form the gather reads, the gather, the padding that makes a
    plane's table 256 bytes long, and ``masks[c]``, with c low bits set in
    each of m bytes.  Up to order 256 the gather is ``bytes.translate`` on
    rows stored as ``bytes``; above it an element does not fit a byte, so the
    gather maps the row's ints through the table.  Slot 2 holds ``left[c]``,
    which takes a row R to y -> R(c y) through row c of the table,
    ``right[d]``, which takes it to y -> R(y d) through column d (the
    transposed table), and the inverses; a translation by (c, d) is two of
    these, so nothing is kept per pair.  A left-centred row is kept under
    (row id of R, c) and a right-centred one under (row id of R, d), each as
    (its row id, its content).  A passing key is exact as the memo is: a row
    id names a row's content in this codomain.  The five stores count
    together toward ``ROW_PRODUCT_MEMO_BOUND`` and are cleared together.
    """
    ct, cinv = codomain.table, codomain.inverses
    m = codomain.order
    cofactor = tuple(ct[cinv[y1]] for y1 in codomain.elements)
    if m <= 256:
        shift, gather, pad = tuple(map(bytes, cofactor)), bytes.translate, bytes(256 - m)
    else:
        shift, gather, pad = cofactor, _gather_ints, b""
    masks = tuple(int.from_bytes(bytes((t,)) * m, "big") for t in _THERMOMETER)
    # itemgetter of one index returns the item; over one element every move is the identity
    move = (lambda index: itemgetter(*index)) if m > 1 else (lambda index: tuple)
    translations = tuple(map(move, ct)), tuple(map(move, zip(*ct))), cinv
    return cofactor, (shift, gather, pad, masks), translations, {}, {}, {}, {}, set()


def _translated_product(rg, ig, c, rx, ix, d, tables) -> tuple[int, ...]:
    """R_g * R_x = tau_c rho_d (A * B) for the centred rows A(y) = R_g(c y) and
    B(y) = R_x(y d), whose core A * B comes from the memo or ``_row_product``."""
    _, planes, (left, right, inverse), memo, row_ids, lefts, rights, _ = tables
    ia, a = _centred(lefts, (ig, c), left[c], rg, row_ids)
    ib, b = _centred(rights, (ix, d), right[d], rx, row_ids)
    core = memo.get((ia, ib))
    if core is None:
        core = memo[ia, ib] = _row_product(a, b, planes)
    return left[inverse[c]](right[inverse[d]](core))  # y -> core(c^-1 y d^-1)


def _centred(store: dict, key: tuple, move, row, row_ids: dict) -> tuple[int, tuple[int, ...]]:
    """The row id and content of ``move(row)``, kept in ``store`` under ``key``."""
    hit = store.get(key)
    if hit is None:
        moved = move(row)
        hit = store[key] = row_ids.setdefault(moved, len(row_ids)), moved
    return hit


def _gather_ints(row: Sequence[int], table: bytes) -> bytes:
    return bytes(map(table.__getitem__, row))


def _row_product(rg: Sequence[int], rx: Sequence[int], planes: tuple) -> tuple[int, ...]:
    """(R_g * R_x)(y) = max over y1 of min(R_g(y1), R_x(y1^-1 y)), for every y,
    one bit plane of 8 levels at a time (see the module docstring); ``planes``
    is slot 1 of the codomain's ``_row_tables``."""
    shift, gather, pad, masks = planes
    m, top = len(rx), max(rx)
    row = bytes(m)  # rank 0 everywhere, when one of the rows is
    for low in range(0, min(max(rg), top), 8):
        levels = (0,) * low + _THERMOMETER + (255,) * (top - low - 8)  # rank -> byte
        table = bytes(map(levels.__getitem__, rx)) + pad
        acc = 0
        for y1_row, level in zip(shift, rg):
            level -= low
            if level > 0:
                acc |= int.from_bytes(gather(y1_row, table), "big") & masks[min(level, 8)]
        counts = acc.to_bytes(m, "big").translate(_POPCOUNT)
        row = counts if low == 0 else tuple(map(add, row, counts))
    return tuple(row)


def _first_violation(rows, dt, cofactor, pairs):
    """First (x1, x2, y, rank of f(x1*x2, y), rank of the sup) off the condition."""
    m = len(cofactor)
    for x1, x2 in pairs:
        r1 = rows[x1]
        r2 = rows[x2]
        rp = rows[dt[x1][x2]]
        for y in range(m):
            best = -1
            for y1 in range(m):
                v = r1[y1]
                w = r2[cofactor[y1][y]]
                if w < v:
                    v = w
                if v > best:
                    best = v
            if rp[y] != best:
                return x1, x2, y, rp[y], best
    return None


def kernel(f: FuzzyMap) -> ElementSubset:
    """Elements whose fuzzy image is the codomain identity."""
    report = is_fuzzy_homomorphism(f)
    if not report:
        raise NotHomomorphism(str(report.witness))
    e2 = f.codomain.identity
    return ElementSubset.from_indices(
        f.domain, (x for x in f.domain.elements if f.images[x] == e2)
    )


def check_theorem_2_1(f: FuzzyMap) -> tuple[bool, bool, bool, bool]:
    """Four structural facts about a fuzzy homomorphism, checked exhaustively.

    1. fuzzy images multiply; 2. the identity maps to the identity with grade
    1; 3. the image of an inverse is the inverse of the image; 4. unit
    entries are closed under simultaneous inversion.  Fact 1 is tested over
    a generating set of the domain (``groups.first_non_multiplicative``).
    Facts 2 and 4 read the rank rows: a cell has grade 1 exactly when its
    rank is ``maps.unit_rank`` of the values.
    """
    g, h = f.domain, f.codomain
    images = f.images
    values, ranks = f.encoding
    top = unit_rank(values)
    p1 = first_non_multiplicative(g, h, images) is None
    p2 = ranks[g.identity][h.identity] == top
    p3 = all(h.inverses[images[x]] == images[g.inverses[x]] for x in g.elements)
    p4 = all(
        ranks[g.inverses[x]][h.inverses[y]] == top
        for x, row in enumerate(ranks)
        for y in compress(h.elements, map(top.__eq__, row))
    )
    return p1, p2, p3, p4


class Theorem22Report(Record):
    kernel: ElementSubset
    kernel_is_normal: bool
    one_one: bool
    kernel_trivial: bool

    @property
    def verdict(self) -> bool:
        return self.kernel_is_normal and (self.one_one == self.kernel_trivial)


def check_theorem_2_2(f: FuzzyMap) -> Theorem22Report:
    """Kernel normality plus the injectivity criterion."""
    k = kernel(f)
    trivial = k.indices == (f.domain.identity,)
    return Theorem22Report(k, is_normal_subgroup(f.domain, k), is_one_one(f), trivial)


def lift_hom(phi: Sequence[int], mu_prime: FuzzySubset, domain: FiniteGroup) -> FuzzyMap:
    """Grade a crisp homomorphism phi through a membership function.

    The lifted map is f(x, y) = mu'(phi(x)^-1 * y) over the codomain carrying
    mu', that is f = f_e . phi: row x is row phi(x) of mu'.translate_rows, so
    every lift through mu' shares those row objects.  phi is checked over a
    generating set of the domain (``groups.first_non_multiplicative``), and
    the error names the first failing pair.  Validity is established per instance by the
    homomorphism oracle; a rejection is surfaced, never silently dropped.
    """
    codomain = mu_prime.group
    phi = tuple(phi)
    if len(phi) != domain.order or any(not 0 <= v < codomain.order for v in phi):
        raise HomError(f"phi must map {domain.name} into {codomain.name}")
    pair = first_non_multiplicative(domain, codomain, phi)
    if pair is not None:
        raise NotHomomorphism(f"phi is not multiplicative at (a, b) = {pair}")
    require_valid_mu(mu_prime)
    f = ranked_map(domain, codomain, mu_prime.encoding[0], picker(phi)(mu_prime.translate_rows))
    report = is_fuzzy_homomorphism(f)
    if not report:
        raise OracleRejected(str(report.witness))
    return f
