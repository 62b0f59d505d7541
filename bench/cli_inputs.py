"""Seeded inputs for the cli-files workload, with the expected outcome of each.

``build(seed, workdir)`` writes group and membership-function files and
returns one round of ``Invocation``s.  The seed chooses how the elements of
every file group are labeled, which cells are corrupted and which grades go
out of range; it never changes the group structures, their orders or the
suites, so each seed costs the same work.  Every expected exit code holds by
construction: 0 for valid input and ablations, 2 for corrupted input.  Each
``check`` re-checks the CLI's answer with ``tables``, never with fuzzaut.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import tables as T

Check = Callable[[str, str], Optional[str]]  # (stdout, stderr) -> problem or None


@dataclass(frozen=True)
class Invocation:
    label: str
    args: tuple[str, ...]
    expected_exit: int
    check: Check


@dataclass(frozen=True)
class FileGroup:
    name: str
    table: list[list[int]]
    path: Path
    perm: list[int]  # original index -> file index


def _s4_normal_subgroups() -> tuple[frozenset[int], frozenset[int]]:
    """V4 and A4 inside S4, as indices of the lexicographic ordering."""
    perms = list(itertools.permutations(range(4)))

    def parity(p) -> int:
        return sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]) % 2

    v4 = frozenset(perms.index(p) for p in [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)])
    a4 = frozenset(i for i, p in enumerate(perms) if parity(p) == 0)
    return v4, a4


# -- checks -----------------------------------------------------------------------

_TRIPLE = re.compile(r"NotAssociative: .*\(a, b, c\) = \((\d+), (\d+), (\d+)\)")
_ENTRY = re.compile(r"NotLatinSquare: entry at row (\d+), column (\d+) is (-?\d+), outside")
_LINE = re.compile(r"NotLatinSquare: (row|column) (\d+) is not a permutation")
_GRADE = re.compile(r"GradeError: grade (\S+) outside \[0, 1\]")
_SYMMETRY = re.compile(
    r"MuNotNormal: mu\(x\*y\) = (\S+) != (\S+) = mu\(y\*x\) at \(x, y\) = \((\d+), (\d+)\)"
)
_ABLATION = re.compile(
    r"non-normal subgroup \(([\d, ]+),?\); Lemma 4\.3 counterexample: labels \((\d+), (\d+)\) "
    r"at cell \((\d+), (\d+)\): composite=(\S+) label-(\d+)=(\S+) \(expected failure\)"
)


def _json(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def check_table_witness(table: list[list[int]]) -> Check:
    """The reported cell must really break the group axioms it names."""
    n = len(table)

    def check(stdout: str, stderr: str) -> Optional[str]:
        if m := _TRIPLE.search(stderr):
            a, b, c = map(int, m.groups())
            if table[table[a][b]][c] == table[a][table[b][c]]:
                return f"associativity witness {(a, b, c)} does not re-check"
            return None
        if m := _ENTRY.search(stderr):
            r, c, v = map(int, m.groups())
            if table[r][c] != v or 0 <= v < n:
                return f"out-of-range witness at ({r}, {c}) does not re-check"
            return None
        if m := _LINE.search(stderr):
            k = int(m.group(2))
            line = table[k] if m.group(1) == "row" else [row[k] for row in table]
            if sorted(line) == list(range(n)):
                return f"{m.group(1)} {k} is a permutation"
            return None
        return f"no table witness in stderr: {stderr.strip()[:200]}"

    return check


def check_grade_witness(grades: list[str]) -> Check:
    def check(stdout: str, stderr: str) -> Optional[str]:
        m = _GRADE.search(stderr)
        if not m:
            return f"no grade witness in stderr: {stderr.strip()[:200]}"
        if m.group(1) not in grades or 0 <= Fraction(m.group(1)) <= 1:
            return f"grade witness {m.group(1)} does not re-check"
        return None

    return check


def check_symmetry_witness(table: list[list[int]], mu: list[Fraction]) -> Check:
    def check(stdout: str, stderr: str) -> Optional[str]:
        m = _SYMMETRY.search(stderr)
        if not m:
            return f"no symmetry witness in stderr: {stderr.strip()[:200]}"
        lhs, rhs = Fraction(m.group(1)), Fraction(m.group(2))
        x, y = int(m.group(3)), int(m.group(4))
        if (mu[table[x][y]], mu[table[y][x]]) != (lhs, rhs) or lhs == rhs:
            return f"symmetry witness at {(x, y)} does not re-check"
        return None

    return check


def check_mu_output(table: list[list[int]], name: str) -> Check:
    def check(stdout: str, stderr: str) -> Optional[str]:
        obj, problem = _json(stdout)
        if problem:
            return problem
        if obj.get("group") != name:
            return f"mu is for {obj.get('group')!r}, not {name!r}"
        return T.mu_violation(table, [Fraction(g) for g in obj["grades"]])

    return check


def check_inn_output(table: list[list[int]]) -> Check:
    n = len(table)

    def check(stdout: str, stderr: str) -> Optional[str]:
        obj, problem = _json(stdout)
        if problem:
            return problem
        labels = sorted(g for cls in obj["classes"] for g in cls)
        if labels != list(range(n)):
            return "classes do not partition the labels"
        k = len(obj["classes"])
        if k * len(T.center(table)) != n:
            return f"{k} classes do not index the quotient by the center"
        if any(sorted(row) != list(range(k)) for row in obj["table"]) or len(obj["table"]) != k:
            return "class table is not a Latin square"
        if obj["iso_with_quotient"] is not True:
            return "class group not reported isomorphic to the quotient"
        return None

    return check


def check_verify_output(rows: int) -> Check:
    def check(stdout: str, stderr: str) -> Optional[str]:
        obj, problem = _json(stdout)
        if problem:
            return problem
        results = obj["results"]
        if len(results) != rows or not all(r["verdict"] for r in results):
            return f"expected {rows} passing rows, got {obj['summary']}"
        return None

    return check


def check_ablation_output(table: list[list[int]]) -> Check:
    """Rebuild the ablated mu from the witness and recompute both cells."""
    n = len(table)
    e = T.identity_of(table)

    def check(stdout: str, stderr: str) -> Optional[str]:
        obj, problem = _json(stdout)
        if problem:
            return problem
        results = obj["results"]
        if len(results) != 1 or not (results[0]["verdict"] and results[0]["expected"]):
            return "expected one recorded violation"
        m = _ABLATION.search(results[0]["witness"] or "")
        if not m:
            return f"no Lemma 4.3 witness: {results[0]['witness']!r}"
        sub = frozenset(int(v) for v in m.group(1).split(",") if v.strip())
        g1, g2, x, y, label = (int(m.group(i)) for i in (2, 3, 4, 5, 7))
        composite, claimed = Fraction(m.group(6)), Fraction(m.group(8))
        if T.closure(table, sub) != sub or T.is_normal(table, sub):
            return f"{sorted(sub)} is not a non-normal subgroup"
        mu = T.chain_mu(n, [frozenset({e}), sub, frozenset(range(n))])
        if label != table[g2][g1]:
            return f"label {label} is not the reversed product of ({g1}, {g2})"
        got = T.composed_grade(table, mu, g1, g2, x, y)
        want = T.induced_grade(table, mu, label, x, y)
        if (got, want) != (composite, claimed) or got == want:
            return f"Lemma 4.3 witness at labels ({g1}, {g2}) cell ({x}, {y}) does not re-check"
        return None

    return check


# -- inputs -----------------------------------------------------------------------


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return path


def build(seed: int, workdir: Path) -> list[Invocation]:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def file_group(name: str, table: list[list[int]]) -> FileGroup:
        perm = list(range(len(table)))
        rng.shuffle(perm)
        relabeled = T.relabel(table, perm)
        path = _write(
            workdir / f"{name}.group.json", {"name": name, "order": len(table), "table": relabeled}
        )
        return FileGroup(name, relabeled, path, perm)

    def file_mu(group: FileGroup, tag: str, chain_gens: list[list[int]], valid=True) -> tuple[Path, list]:
        """Chain mu {e} < <gens_1> < ... < G, written in the file's labels."""
        n = len(group.table)
        terms = [frozenset({T.identity_of(group.table)})]
        terms += [T.closure(group.table, [group.perm[g] for g in gens]) for gens in chain_gens]
        terms.append(frozenset(range(n)))
        mu = T.chain_mu(n, terms)
        if (T.mu_violation(group.table, mu) is None) != valid:
            raise RuntimeError(f"{group.name} {tag} mu is not {'valid' if valid else 'invalid'}")
        path = _write(
            workdir / f"{group.name}.{tag}.mu.json",
            {"group": group.name, "grades": [str(g) for g in mu]},
        )
        return path, mu

    def corrupt(group: FileGroup, out_of_range: bool) -> FileGroup:
        n = len(group.table)
        table = [list(row) for row in group.table]
        r, c = rng.randrange(n), rng.randrange(n)
        table[r][c] = n + rng.randrange(n) if out_of_range else (table[r][c] + 1 + rng.randrange(n - 1)) % n
        kind = "range" if out_of_range else "cell"
        path = _write(
            workdir / f"{group.name}.bad-{kind}.group.json",
            {"name": group.name, "order": n, "table": table},
        )
        return FileGroup(group.name, table, path, group.perm)

    z8 = T.cyclic(8)
    z8z8 = file_group("Z8xZ8", T.direct(z8, z8))
    d24 = file_group("D24", T.dihedral(24))
    s4z2 = file_group("S4xZ2", T.direct(T.symmetric(4), T.cyclic(2)))
    s4 = file_group("S4", T.symmetric(4))
    d6 = file_group("D6", T.dihedral(6))
    d5 = file_group("D5", T.dihedral(5))
    s3 = file_group("S3", T.symmetric(3))

    v4, a4 = _s4_normal_subgroups()
    z8z8_mu, _ = file_mu(z8z8, "chain", [[1]])  # {e} < 0 x Z8 < G
    d24_mu, _ = file_mu(d24, "chain", [[24], [2]])  # {e} < center < rotations < G
    s4z2_mu, _ = file_mu(s4z2, "chain", [[2 * v for v in v4], [2 * v for v in a4], [2 * v for v in range(24)]])
    # graded over the non-normal {e, s}: passes the subgroup axioms, fails symmetry
    d24_bad_mu, d24_bad_grades = file_mu(d24, "non-normal", [[1]], valid=False)

    z8z8_range_grades = [str(g) for g in T.chain_mu(64, [frozenset({T.identity_of(z8z8.table)}), frozenset(range(64))])]
    bad = rng.choice([x for x in range(64) if x != T.identity_of(z8z8.table)])
    z8z8_range_grades[bad] = rng.choice(["3/2", "5/4", "-1/3", "2"])
    z8z8_range_mu = _write(workdir / "Z8xZ8.range.mu.json", {"group": "Z8xZ8", "grades": z8z8_range_grades})

    def verify(group: FileGroup, mu: Path, suite: str) -> tuple[str, ...]:
        return ("verify", "--group", f"file:{group.path}", "--mu", f"file:{mu}",
                "--suite", suite, "--format", "json")

    invocations = [
        Invocation("verify-Z8xZ8-thm4.2", verify(z8z8, z8z8_mu, "thm:theorem-4.2"), 0, check_verify_output(1)),
        Invocation("verify-Z8xZ8-lem3.8", verify(z8z8, z8z8_mu, "thm:lemma-3.8"), 0, check_verify_output(1)),
        Invocation("verify-D24-thm4.1", verify(d24, d24_mu, "thm:theorem-4.1"), 0, check_verify_output(1)),
        Invocation("verify-D24-lem3.7", verify(d24, d24_mu, "thm:lemma-3.7"), 0, check_verify_output(1)),
        Invocation("verify-S4xZ2-thm4.2", verify(s4z2, s4z2_mu, "thm:theorem-4.2"), 0, check_verify_output(1)),
        Invocation("verify-S4xZ2-lem4.5", verify(s4z2, s4z2_mu, "thm:lemma-4.5"), 0, check_verify_output(1)),
    ]
    for group, strategy in ((s4, "chain"), (s4, "class"), (d6, "chain"), (d5, "class")):
        invocations.append(Invocation(
            f"gen-mu-{group.name}-{strategy}",
            ("gen-mu", "--group", f"file:{group.path}", "--strategy", strategy),
            0, check_mu_output(group.table, group.name),
        ))
    # normal_subgroups enumerates 2^19 class unions here: a known cliff, kept visible
    invocations.append(Invocation(
        "gen-mu-D4xZ4-chain",
        ("gen-mu", "--group", "builtin:direct_product(D4,Z4)", "--strategy", "chain"),
        0, check_mu_output(T.direct(T.dihedral(4), T.cyclic(4)), "D4xZ4"),
    ))
    for group, mu in ((s4, "auto:class"), (d6, "auto:chain"), (d5, "auto:class")):
        invocations.append(Invocation(
            f"inn-{group.name}",
            ("inn", "--group", f"file:{group.path}", "--mu", mu, "--format", "json"),
            0, check_inn_output(group.table),
        ))
    for group, mu, out_of_range in ((z8z8, z8z8_mu, False), (d24, d24_mu, True), (s4z2, s4z2_mu, False)):
        broken = corrupt(group, out_of_range)
        invocations.append(Invocation(
            f"reject-table-{group.name}",
            verify(broken, mu, "thm:theorem-4.2"), 2, check_table_witness(broken.table),
        ))
    invocations.append(Invocation(
        "reject-mu-range-Z8xZ8", verify(z8z8, z8z8_range_mu, "thm:theorem-4.2"), 2,
        check_grade_witness(z8z8_range_grades),
    ))
    invocations.append(Invocation(
        "reject-mu-non-normal-D24", verify(d24, d24_bad_mu, "thm:theorem-4.2"), 2,
        check_symmetry_witness(d24.table, d24_bad_grades),
    ))
    for group in (s3, d5, s4):
        invocations.append(Invocation(
            f"ablate-normal-mu-{group.name}",
            ("verify", "--group", f"file:{group.path}", "--ablate", "normal-mu", "--format", "json"),
            0, check_ablation_output(group.table),
        ))
    rng.shuffle(invocations)
    return invocations
