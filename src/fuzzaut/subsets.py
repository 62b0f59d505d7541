"""Membership functions on a group, subgroup predicates, and the chain generator.

A fuzzy subset assigns each element an exact rational grade.  The predicates
here are the module's source of truth.  Every mu built here comes from one
generator, ``gen_mu_chain``, which grades a chain of subgroups from {e} up
to the group and re-certifies its output through the predicates; both
canonical strategies are such chains.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import FuzzautError, Record, Verdict, derived_cache
from .grades import GRADE_ONE, grade, rank_grades
from .groups import (
    FiniteGroup,
    conjugacy_classes,
    derived_series,
    is_subgroup,
    normal_subgroups,
)
from .maps import FuzzyMap, ranked_map


class SubsetError(FuzzautError):
    pass


class NotNested(SubsetError):
    pass


class NotSubgroup(SubsetError):
    pass


class GradesNotDecreasing(SubsetError):
    pass


class MuNotNormal(SubsetError):
    pass


class MuNotPointed(SubsetError):
    pass


class StrategyInapplicable(SubsetError):
    pass


class FuzzySubset(Record):
    """Grade vector over a group's elements: mu(x) is ``grades[x]``.

    ``encoding = (values, ranks)`` holds the grades as integer ranks
    (``grades.rank_grades``), derived once by the constructor.  It is an
    attribute, not a field: not an argument, and kept out of equality.  The
    predicates scan the ranks, and every map built from mu
    (``maps.indexed_map``) reuses them; every lift through mu and the
    induced family reindex ``f_e``, built and scanned once.
    """

    group: FiniteGroup
    grades: tuple[Fraction, ...]

    def __init__(self, group, grades) -> None:
        self.__dict__.update(group=group, grades=grades, encoding=rank_grades(grades))

    @cached_property
    def f_e(self) -> FuzzyMap:
        """f_e(x, y) = mu(x^-1 y): row x holds the ranks of y -> mu(x^-1 y), and
        one ``maps.ranked_map`` scan finds its unit entries, raising what that
        scan raises if some row has no grade-1 entry or several.  They are
        computed, not assumed from pointedness."""
        t, inv, (values, ranks) = self.group.table, self.group.inverses, self.encoding
        rows = tuple(tuple(map(ranks.__getitem__, t[inv[x]])) for x in self.group.elements)
        return ranked_map(self.group, self.group, values, rows)

    @cached_property
    def _fault(self) -> Optional[tuple[type, str]]:
        """Why ``require_valid_mu`` rejects mu (error class and message), or None."""
        ok, witness = is_normal_fuzzy_subgroup(self)
        if not ok:
            return MuNotNormal, witness
        if not is_pointed(self):
            return MuNotPointed, "grade 1 must be attained exactly at the identity"
        return None


def fuzzy_subset(group: FiniteGroup, grades: Iterable) -> FuzzySubset:
    """Build a fuzzy subset, coercing and range-checking every grade."""
    vec = tuple(grade(g) for g in grades)
    if len(vec) != group.order:
        raise SubsetError(f"{len(vec)} grades for a group of order {group.order}")
    return FuzzySubset(group, vec)


def is_fuzzy_subgroup(mu: FuzzySubset) -> Verdict:
    """mu(xy) >= mu(x) ^ mu(y) and mu(x^-1) >= mu(x); the first failure's text.

    Only the product condition is scanned.  In a finite group x^-1 = x^(k-1)
    for the order k of x, so mu(x^-1) >= mu(x) follows from it by induction
    and can never fail once it holds.  The scan compares mu's integer ranks
    (``mu.encoding``); the witness names mu's grades.
    """
    g = mu.group
    t = g.table
    vec = mu.grades
    _, rank = mu.encoding
    for x in g.elements:
        rx = rank[x]
        row = t[x]
        for y in g.elements:
            lower = x if rx < rank[y] else y
            if rank[row[y]] < rank[lower]:
                return False, (f"mu(x*y) = {vec[row[y]]} < {vec[lower]} = mu(x)^mu(y) "
                               f"at (x, y) = ({x}, {y})")
    return True, None


def is_normal_fuzzy_subgroup(mu: FuzzySubset) -> Verdict:
    """Fuzzy subgroup with mu(xy) = mu(yx) everywhere.

    Normality presupposes the subgroup inequalities, so those are checked
    first and their witness is forwarded on failure.  Both scans compare
    integer ranks.
    """
    ok, witness = is_fuzzy_subgroup(mu)
    if not ok:
        return False, witness
    g = mu.group
    t = g.table
    vec = mu.grades
    _, rank = mu.encoding
    for x in g.elements:
        for y in g.elements:
            if rank[t[x][y]] != rank[t[y][x]]:
                return False, (f"mu(x*y) = {vec[t[x][y]]} != {vec[t[y][x]]} = mu(y*x) "
                               f"at (x, y) = ({x}, {y})")
    return True, None


def is_class_constant(mu: FuzzySubset) -> bool:
    """Independent route to the symmetry condition: one rank on each conjugacy class."""
    _, ranks = mu.encoding
    return all(len({ranks[x] for x in cls}) == 1 for cls in conjugacy_classes(mu.group))


def is_pointed(mu: FuzzySubset) -> bool:
    """Grade 1 is attained exactly at the identity: 1 is mu's top value, and
    the identity alone has its rank."""
    values, ranks = mu.encoding
    top = len(values) - 1
    return values[-1] == GRADE_ONE and ranks[mu.group.identity] == top and ranks.count(top) == 1


def require_valid_mu(mu: FuzzySubset) -> None:
    """Entry gate for the graded-conjugation constructions.

    Raises ``MuNotNormal`` or ``MuNotPointed`` unless ``is_normal_fuzzy_subgroup``
    and ``is_pointed`` hold.  The verdict is computed once per ``FuzzySubset``
    object and kept on it; each rejection raises a fresh error.
    """
    fault = mu._fault
    if fault is not None:
        kind, message = fault
        raise kind(message)


# -- generators --------------------------------------------------------------


def gen_mu_chain(group: FiniteGroup, chain: Sequence, grades: Sequence) -> FuzzySubset:
    """Membership function from a nested subgroup chain with decreasing grades.

    ``chain[0]`` must be the trivial subgroup and the last term the whole
    group; mu(x) takes the grade of the first chain term containing x.  The
    output is certified through the predicates, not assumed.
    """
    sets = [frozenset(map(int, part)) for part in chain]
    vals = [grade(g) for g in grades]
    if len(sets) != len(vals):
        raise SubsetError(f"{len(sets)} chain terms but {len(vals)} grades")
    if not sets or sets[0] != {group.identity}:
        raise NotNested("chain must start at the trivial subgroup {e}")
    if sets[-1] != frozenset(group.elements):
        raise NotNested("chain must end at the whole group")
    for i, s in enumerate(sets):
        if not is_subgroup(group, s):
            raise NotSubgroup(f"chain term {i} is not a subgroup")
        if i and not sets[i - 1] <= s:
            raise NotNested(f"chain term {i - 1} is not contained in term {i}")
    if vals[0] != GRADE_ONE:
        raise GradesNotDecreasing("first grade must be 1")
    if any(vals[i] <= vals[i + 1] for i in range(len(vals) - 1)):
        raise GradesNotDecreasing(f"grades must strictly decrease, got {vals}")
    vec = []
    for x in group.elements:
        vec.append(vals[next(i for i, s in enumerate(sets) if x in s)])
    mu = FuzzySubset(group, tuple(vec))
    ok, witness = is_fuzzy_subgroup(mu)
    if not (ok and is_pointed(mu)):  # raised, not asserted, so that python -O keeps it
        raise RuntimeError(f"chain construction produced an invalid {mu}: {witness or 'not pointed'}")
    return mu


# -- canonical strategies ----------------------------------------------------


def _halving(k: int) -> list[Fraction]:
    return [Fraction(1, 2**i) for i in range(k)]


@derived_cache
def chain_strategy(group: FiniteGroup) -> FuzzySubset:
    """Canonical mu from a maximal chain of normal subgroups, grades 1, 1/2, ...

    The chain grows greedily: each step picks the normal subgroup of least
    order (ties broken by element tuple) strictly containing the current one,
    which makes consecutive terms adjacent in the normal-subgroup lattice.
    """
    normals = normal_subgroups(group)
    chain = [frozenset({group.identity})]
    full = frozenset(group.elements)
    while chain[-1] != full:
        ext = min(
            (s for s in normals if chain[-1] < s),
            key=lambda s: (len(s), tuple(sorted(s))),
        )
        chain.append(ext)
    return gen_mu_chain(group, chain, _halving(len(chain)))


@derived_cache
def class_strategy(group: FiniteGroup) -> FuzzySubset:
    """Canonical class-constant mu: the derived series, read from {e} upward,
    as a chain graded 1, 1/2, ...

    mu(x) = 2^-(number of derived-series terms missing x).  Derived subgroups
    are characteristic, so mu is constant on conjugacy classes; that is
    certified again, by raising.  Requires the series to reach the trivial
    subgroup.
    """
    series = derived_series(group)
    if len(series[-1]) != 1:
        raise StrategyInapplicable(
            f"derived series of {group.name} does not reach the trivial subgroup"
        )
    mu = gen_mu_chain(group, series[::-1], _halving(len(series)))
    if not is_class_constant(mu):  # raised, not asserted, so that python -O keeps it
        raise RuntimeError(f"class construction produced an invalid {mu}: not class constant")
    return mu


_STRATEGIES = {"chain": chain_strategy, "class": class_strategy}


def mu_from_strategy(group: FiniteGroup, token: str) -> FuzzySubset:
    try:
        builder = _STRATEGIES[token]
    except KeyError:
        raise StrategyInapplicable(f"unknown strategy token {token!r}") from None
    return builder(group)


def flat_mu(group: FiniteGroup, value=1) -> FuzzySubset:
    """Constant membership function; the pointedness-ablation input."""
    return fuzzy_subset(group, [value] * group.order)
