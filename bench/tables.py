"""Cayley tables and membership-function checks, written independently of fuzzaut.

The cli-files workload writes its group and membership-function files from
these tables and re-checks every answer the CLI returns against them, so the
output check never asks the library under test to confirm itself.  The
builtin orderings reproduce the ones documented in
``fuzzaut.groups.builtin_group``; a change to those orderings shows up here
as a failed re-check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def cyclic(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral(n: int) -> list[list[int]]:
    """Order 2n; r^i s^j has index 2*i + j and s r^k = r^-k s."""

    def mul(a: int, b: int) -> int:
        i, j, k, l = a // 2, a % 2, b // 2, b % 2
        return ((i + (k if j == 0 else -k)) % n) * 2 + (j + l) % 2

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def symmetric(n: int) -> list[list[int]]:
    """One-line permutations in lexicographic order, (p*q)(x) = p(q(x))."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]


def direct(t1: list[list[int]], t2: list[list[int]]) -> list[list[int]]:
    """Row-major pairs (a1, a2) -> a1 * |G2| + a2."""
    n2 = len(t2)
    order = len(t1) * n2
    return [
        [t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2] for b in range(order)]
        for a in range(order)
    ]


def relabel(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The same group with element a renamed perm[a]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def identity_of(table: list[list[int]]) -> int:
    return next(e for e in range(len(table)) if all(table[e][a] == a for a in range(len(table))))


def inverses(table: list[list[int]]) -> list[int]:
    e = identity_of(table)
    return [row.index(e) for row in table]


def center(table: list[list[int]]) -> list[int]:
    n = len(table)
    return [z for z in range(n) if all(table[z][x] == table[x][z] for x in range(n))]


def closure(table: list[list[int]], gens) -> frozenset[int]:
    e = identity_of(table)
    seen, work = {e}, [e]
    while work:
        a = work.pop()
        for g in gens:
            b = table[a][g]
            if b not in seen:
                seen.add(b)
                work.append(b)
    return frozenset(seen)


def is_normal(table: list[list[int]], members: frozenset[int]) -> bool:
    inv = inverses(table)
    return all(table[table[inv[g]][h]][g] in members for h in members for g in range(len(table)))


def chain_mu(n: int, chain: list[frozenset[int]]) -> list[Fraction]:
    """Grades 1, 1/2, 1/4, ... by the first chain term that holds each element."""
    return [
        Fraction(1, 2 ** next(i for i, term in enumerate(chain) if x in term)) for x in range(n)
    ]


def mu_violation(table: list[list[int]], mu: list[Fraction]) -> str | None:
    """Why ``mu`` is not a normal pointed fuzzy subgroup, or None when it is one."""
    n = len(table)
    e = identity_of(table)
    inv = inverses(table)
    if len(mu) != n:
        return f"{len(mu)} grades for order {n}"
    if any(not 0 <= g <= 1 for g in mu):
        return "grade outside [0, 1]"
    if mu[e] != 1 or any(mu[x] == 1 for x in range(n) if x != e):
        return "grade 1 is not attained exactly at the identity"
    for x in range(n):
        if mu[inv[x]] < mu[x]:
            return f"inverse condition fails at {x}"
        for y in range(n):
            if mu[table[x][y]] < min(mu[x], mu[y]):
                return f"product condition fails at ({x}, {y})"
            if mu[table[x][y]] != mu[table[y][x]]:
                return f"symmetry fails at ({x}, {y})"
    return None


def induced_grade(table: list[list[int]], mu: list[Fraction], g: int, x: int, y: int) -> Fraction:
    """Cell (x, y) of the map labeled g: mu(x^-1 g y g^-1)."""
    inv = inverses(table)
    return mu[table[inv[x]][table[table[g][y]][inv[g]]]]


def composed_grade(table, mu, g1: int, g2: int, x: int, y: int) -> Fraction:
    """Cell (x, y) of f_g1 . f_g2: sup of f_g1(a, y) over the a with f_g2(x, a) = 1."""
    n = len(table)
    units = [a for a in range(n) if induced_grade(table, mu, g2, x, a) == 1]
    return max((induced_grade(table, mu, g1, a, y) for a in units), default=Fraction(0))
