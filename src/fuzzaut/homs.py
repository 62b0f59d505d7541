"""The fuzzy homomorphism predicate, kernels, and lifted constructions.

A fuzzy map f between groups is a fuzzy homomorphism when, for every pair
x1, x2 and every codomain element y, the grade f(x1*x2, y) equals the sup of
f(x1, y1) ^ f(x2, y2) over all factorizations y = y1*y2.  The check here is
exhaustive over all triples; nothing is sampled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import FuzzautError
from .groups import ElementSubset, FiniteGroup, is_normal_subgroup
from .maps import FuzzyMap, is_one_one, make_fuzzy_map
from .subsets import FuzzySubset, require_valid_mu


class HomError(FuzzautError):
    pass


class NotHomomorphism(HomError):
    pass


class OracleRejected(HomError):
    """A lifted construction failed the homomorphism oracle; never dropped."""


@dataclass(frozen=True)
class HomWitness:
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


@dataclass(frozen=True)
class HomCheckReport:
    verdict: bool
    witness: Optional[HomWitness] = None

    def __bool__(self) -> bool:
        return self.verdict

    def __iter__(self):
        """Unpacks as ``(verdict, witness)``, the shape of every law checker."""
        return iter((self.verdict, self.witness))


def is_fuzzy_homomorphism(f: FuzzyMap) -> HomCheckReport:
    """Exhaustive check of the sup-over-factorizations condition.

    Grades carry only order information inside the scan, so they are
    compressed to dense integer ranks first; the rank map is strictly
    monotone, which preserves every min/sup/equality verdict exactly.
    """
    domain, codomain = f.domain, f.codomain
    n, m = domain.order, codomain.order
    values = sorted({v for row in f.grades for v in row})
    rank = {v: i for i, v in enumerate(values)}
    rows = [[rank[v] for v in row] for row in f.grades]
    dt = domain.table
    ct = codomain.table
    cinv = codomain.inverses
    # cofactor[y1][y] = the y2 with y1*y2 = y
    cofactor = [ct[cinv[y1]] for y1 in range(m)]
    for x1 in range(n):
        r1 = rows[x1]
        prod_row = dt[x1]
        for x2 in range(n):
            r2 = rows[x2]
            rp = rows[prod_row[x2]]
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
                    return HomCheckReport(
                        False, HomWitness(x1, x2, y, values[rp[y]], values[best])
                    )
    return HomCheckReport(True)


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
    entries are closed under simultaneous inversion.
    """
    g, h = f.domain, f.codomain
    images = f.images
    p1 = all(
        images[g.table[x1][x2]] == h.table[images[x1]][images[x2]]
        for x1 in g.elements
        for x2 in g.elements
    )
    p2 = f.grades[g.identity][h.identity] == 1
    p3 = all(h.inverses[images[x]] == images[g.inverses[x]] for x in g.elements)
    p4 = all(
        f.grades[g.inverses[x]][h.inverses[y]] == 1
        for x in g.elements
        for y in h.elements
        if f.grades[x][y] == 1
    )
    return p1, p2, p3, p4


@dataclass(frozen=True)
class Theorem22Report:
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
    return Theorem22Report(
        kernel=k,
        kernel_is_normal=is_normal_subgroup(f.domain, k),
        one_one=is_one_one(f),
        kernel_trivial=k.indices == (f.domain.identity,),
    )


def lift_hom(phi: Sequence[int], mu_prime: FuzzySubset, domain: FiniteGroup) -> FuzzyMap:
    """Grade a crisp homomorphism phi through a membership function.

    The lifted map is f(x, y) = mu'(phi(x)^-1 * y) over the codomain carrying
    mu'.  Validity is established per instance by the homomorphism oracle;
    a rejection is surfaced, never silently dropped.
    """
    codomain = mu_prime.group
    phi = tuple(phi)
    if len(phi) != domain.order or any(not 0 <= v < codomain.order for v in phi):
        raise HomError(f"phi must map {domain.name} into {codomain.name}")
    for a in domain.elements:
        for b in domain.elements:
            if phi[domain.table[a][b]] != codomain.table[phi[a]][phi[b]]:
                raise NotHomomorphism(f"phi is not multiplicative at (a, b) = ({a}, {b})")
    require_valid_mu(mu_prime)
    ct = codomain.table
    cinv = codomain.inverses
    rows = tuple(
        tuple(mu_prime.grades[ct[cinv[phi[x]]][y]] for y in codomain.elements)
        for x in domain.elements
    )
    f = make_fuzzy_map(domain, codomain, rows)
    report = is_fuzzy_homomorphism(f)
    if not report:
        raise OracleRejected(str(report.witness))
    return f
