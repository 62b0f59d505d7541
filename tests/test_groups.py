"""Group core: table validation, builtins, structure, crisp automorphisms."""

import hashlib
import re
from itertools import combinations, permutations, product

import pytest

from hypothesis import given, settings, strategies as st

from fuzzaut import groups
from fuzzaut.errors import clear_derived
from fuzzaut.groups import (
    FiniteGroup,
    GroupError,
    GroupTooLarge,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    UnknownGroup,
    all_subgroups,
    builtin_group,
    center,
    closure,
    conjugacy_classes,
    conjugations,
    crisp_automorphisms,
    derived_group,
    derived_series,
    first_non_associative,
    first_non_multiplicative,
    generating_sequence,
    is_group_isomorphism,
    is_normal_subgroup,
    is_subgroup,
    magma_generators,
    make_group,
    normal_subgroups,
    opposite_group,
    quotient_group,
    register_group,
)
from fuzzaut.harness import DEFAULT_GROUPS

BUILTIN_TOKENS = [
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8",
    "D3", "D4", "S3", "S4", "Q8", "V4",
    "direct_product(cyclic(2),cyclic(3))",
]


# (count, sha256 prefix of the repr) of crisp_automorphisms for every builtin
# family member of order <= 24 and some direct products, recorded while the
# search still started from the smallest-missing-index generators.
RECORDED_AUTOMORPHISMS = {
    "Z1": (1, "efd70b49446e8be6"),
    "Z2": (1, "9a96df51dc791004"),
    "Z3": (2, "c72d5cd44e2dd5c7"),
    "Z4": (2, "1a3506a95e2b3940"),
    "Z5": (4, "91c39c3b5962f35a"),
    "Z6": (2, "297d2f6e47181412"),
    "Z7": (6, "c7e064233e8039d5"),
    "Z8": (4, "ef291faa675cf51c"),
    "Z9": (6, "213e01f4c372b71c"),
    "Z10": (4, "7670c06c8eed3cf8"),
    "Z11": (10, "175606f0fb64d542"),
    "Z12": (4, "84e53a310aedd8c9"),
    "Z13": (12, "b2d1abb1667202fb"),
    "Z14": (6, "304a547873c96bf7"),
    "Z15": (8, "e09c99cc81df5374"),
    "Z16": (8, "8e27b0075fd2af4c"),
    "D1": (1, "9a96df51dc791004"),
    "D2": (6, "0ae4ca143d572991"),
    "D3": (6, "0c6ea4657bc01333"),
    "D4": (8, "6c56662b22dfc808"),
    "D5": (20, "fb3010d24d6886c9"),
    "D6": (12, "2e93b15f216f5e2b"),
    "D7": (42, "93fd89cc2a612521"),
    "D8": (32, "87a25df7b612c128"),
    "S1": (1, "efd70b49446e8be6"),
    "S2": (1, "9a96df51dc791004"),
    "S3": (6, "fb9b29ade4a77b54"),
    "S4": (24, "57aece2636145f06"),
    "Q8": (24, "c31fe29eedbe6257"),
    "V4": (6, "0ae4ca143d572991"),
    "direct_product(Z2,Z2)": (6, "0ae4ca143d572991"),
    "direct_product(Z2,Z4)": (8, "b32519ff13a43306"),
    "direct_product(Z3,Z3)": (48, "4c3de6455a64e521"),
    "direct_product(Z2,S3)": (12, "f5a1192d54a41ded"),
    "direct_product(Z2,Q8)": (192, "5504aeca60032de9"),
    "direct_product(Z2,D4)": (64, "303db97c597de321"),
    "direct_product(Z4,Z4)": (96, "f5aaad6813636981"),
    "direct_product(Z2,direct_product(Z2,Z2))": (168, "fd6a60f80274d562"),
    "direct_product(Z3,S3)": (12, "98aad51760418976"),
    "direct_product(Z2,Z12)": (16, "9eea38551c180060"),
    "direct_product(Z2,D6)": (144, "763d31c5dfd55be7"),
    "direct_product(Z3,Q8)": (48, "5c5864b549114ba6"),
}


def brute_force_subgroups(group):
    """Oracle: every nonempty product-closed subset of a finite group is a subgroup."""
    t = group.table
    out = []
    for mask in range(1, 1 << group.order):
        s = frozenset(x for x in group.elements if mask >> x & 1)
        if all(t[a][b] in s for a in s for b in s):
            out.append(s)
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def brute_force_automorphisms(group):
    """Oracle: scan every bijection for multiplicativity (small orders only)."""
    out = []
    for p in permutations(range(group.order)):
        if all(
            p[group.table[a][b]] == group.table[p[a]][p[b]]
            for a in group.elements
            for b in group.elements
        ):
            out.append(p)
    return sorted(out)


def greedy_generating_sequence(group):
    """Oracle: the greedy generating set as a full ``max`` over every candidate's
    closure, the smaller index on a tie, with the span closed again after each step."""
    gens = ()
    span = closure(group, gens)
    while len(span) < group.order:
        best = max(
            (x for x in group.elements if x not in span),
            key=lambda x: len(closure(group, gens + (x,))),
        )
        gens += (best,)
        span = closure(group, gens)
    return gens or (group.identity,)


def lexicographic_triple(table):
    """Oracle: the first (a, b, c) with (ab)c != a(bc), scanning every triple."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


def product_closure(table, members):
    """Oracle: the least set containing ``members`` closed under the table's product."""
    span = set(members)
    while True:
        grown = span | {table[a][b] for a in span for b in span}
        if grown == span:
            return span
        span = grown


SMALL_BUILTINS = sorted(t for t in RECORDED_AUTOMORPHISMS if builtin_group(t).order <= 24)


@st.composite
def square_tables(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    cell = st.integers(0, n - 1)
    return [draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n)]


@st.composite
def corrupted_builtins(draw):
    """A builtin table of order <= 24 with one to three cells overwritten."""
    table = [list(row) for row in builtin_group(draw(st.sampled_from(SMALL_BUILTINS))).table]
    n = len(table)
    for _ in range(draw(st.integers(1, 3))):
        table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            st.integers(0, n - 1)
        )
    return table


class TestAssociativityKernel:
    """Light's test over the generators decides; the full scan is the oracle."""

    @given(table=square_tables())
    @settings(max_examples=300, deadline=None)
    def test_random_tables_match_the_full_scan(self, table):
        assert first_non_associative(table) == lexicographic_triple(table)

    @given(table=corrupted_builtins())
    @settings(max_examples=150, deadline=None)
    def test_corrupted_builtins_match_the_full_scan(self, table):
        assert first_non_associative(table) == lexicographic_triple(table)

    def test_one_by_one_table(self):
        assert magma_generators([[0]]) == (0,)
        assert first_non_associative([[0]]) is None

    def test_the_witness_can_lie_off_the_generators(self):
        # 0 generates this table (0*0 = 2, 0*2 = 1); the first failure has b = 1
        table = [[2, 2, 1], [0, 1, 0], [1, 1, 2]]
        assert magma_generators(table) == (0,)
        assert first_non_associative(table) == (0, 1, 0) == lexicographic_triple(table)


class TestMagmaGenerators:
    @given(table=square_tables())
    @settings(max_examples=200, deadline=None)
    def test_each_generator_is_the_least_element_outside_the_earlier_closure(self, table):
        gens = magma_generators(table)
        for i, g in enumerate(gens):
            span = product_closure(table, gens[:i])
            assert g == min(x for x in range(len(table)) if x not in span)
        assert product_closure(table, gens) == set(range(len(table)))

    @pytest.mark.parametrize("token", sorted(RECORDED_AUTOMORPHISMS))
    def test_closure_is_the_whole_table(self, token):
        g = builtin_group(token)
        gens = magma_generators(g.table)
        assert product_closure(g.table, gens) == set(g.elements)
        assert closure(g, gens) == frozenset(g.elements)


def reference_make_group(table, name=None):
    """``make_group`` as it was, Latin-square pass included, kept verbatim as the oracle."""
    rows = tuple(tuple(int(v) for v in row) for row in table)
    n = len(rows)
    if n == 0:
        raise NotLatinSquare("empty table")
    for r, row in enumerate(rows):
        if len(row) != n:
            raise NotLatinSquare(f"row {r} has length {len(row)}, expected {n}")
        for c, v in enumerate(row):
            if not 0 <= v < n:
                raise NotLatinSquare(f"entry at row {r}, column {c} is {v}, outside 0..{n - 1}")
    triple = first_non_associative(rows)
    if triple is not None:
        raise NotAssociative(f"(a*b)*c != a*(b*c) for (a, b, c) = {triple}")
    identity = None
    for e in range(n):
        if all(rows[e][a] == a and rows[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("no two-sided identity element")
    inverses = []
    for a in range(n):
        b = next((b for b in range(n) if rows[a][b] == identity and rows[b][a] == identity), None)
        if b is None:
            raise NoInverse(f"element {a} has no two-sided inverse")
        inverses.append(b)
    full = list(range(n))
    for r in range(n):
        if sorted(rows[r]) != full:
            raise NotLatinSquare(f"row {r} is not a permutation of 0..{n - 1}")
        if sorted(rows[a][r] for a in range(n)) != full:
            raise NotLatinSquare(f"column {r} is not a permutation of 0..{n - 1}")
    return FiniteGroup(name or f"G{n}", n, rows, identity, tuple(inverses))


def outcome(build, table):
    """The group ``build`` returns for ``table``, or the class and message of its error."""
    try:
        return build(table)
    except GroupError as exc:
        return type(exc), str(exc)


@st.composite
def relabeled_builtins(draw):
    """A builtin table of order <= 24 under a drawn relabeling, sometimes with a cell overwritten."""
    group = builtin_group(draw(st.sampled_from(SMALL_BUILTINS)))
    labels = draw(st.permutations(list(group.elements)))
    table = [[0] * group.order for _ in group.elements]
    for a in group.elements:
        for b in group.elements:
            table[labels[a]][labels[b]] = labels[group.table[a][b]]
    if draw(st.booleans()):
        n = group.order
        table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return table


@st.composite
def raw_tables(draw, max_n=5):
    """Tables of order <= 5 that may be ragged or hold entries out of range."""
    n = draw(st.integers(1, max_n))
    cell = st.integers(-1, n) if draw(st.booleans()) else st.integers(0, n - 1)
    return [draw(st.lists(cell, min_size=n - 1, max_size=n + 1)) if draw(st.integers(0, 9)) == 0
            else draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n)]


class TestMakeGroupAgainstTheReference:
    """The same group, or the same error class and message, as the reference
    with its Latin-square pass, on every table."""

    def test_every_table_of_order_at_most_3(self):
        """Every magma on at most 3 elements: each semigroup, monoid and group among them."""
        seen = set()
        for n in (1, 2, 3):
            for cells in product(range(n), repeat=n * n):
                table = [cells[i * n:(i + 1) * n] for i in range(n)]
                expected = outcome(reference_make_group, table)
                assert outcome(make_group, table) == expected
                seen.add(expected[0] if isinstance(expected, tuple) else FiniteGroup)
        assert seen == {FiniteGroup, NotAssociative, NoIdentity, NoInverse}

    @given(table=corrupted_builtins())
    @settings(max_examples=200, deadline=None)
    def test_corrupted_builtins(self, table):
        assert outcome(make_group, table) == outcome(reference_make_group, table)

    @given(table=relabeled_builtins())
    @settings(max_examples=200, deadline=None)
    def test_relabeled_builtins(self, table):
        assert outcome(make_group, table) == outcome(reference_make_group, table)

    @given(table=st.one_of(raw_tables(), square_tables(max_n=5)))
    @settings(max_examples=500, deadline=None)
    def test_random_tables_of_order_at_most_5(self, table):
        assert outcome(make_group, table) == outcome(reference_make_group, table)

    @pytest.mark.parametrize("token", BUILTIN_TOKENS)
    def test_builtins(self, token):
        table = builtin_group(token).table
        assert make_group(table) == reference_make_group(table)


class TestMakeGroup:
    def test_trivial(self):
        g = make_group([[0]])
        assert g.order == 1 and g.identity == 0 and g.inverses == (0,)

    def test_z4_inverses(self):
        g = make_group([[(a + b) % 4 for b in range(4)] for a in range(4)])
        assert g.identity == 0
        assert g.inverses == (0, 3, 2, 1)

    def test_corrupted_cell_is_not_associative(self):
        table = [list(row) for row in builtin_group("S3").table]
        table[1][1] = (table[1][1] + 1) % 6
        with pytest.raises(NotAssociative) as err:
            make_group(table)
        assert "(1, 1, 2)" in str(err.value)

    @given(table=corrupted_builtins())
    @settings(max_examples=100, deadline=None)
    def test_corrupted_builtins_name_the_first_triple(self, table):
        triple = lexicographic_triple(table)
        if triple is None:
            try:  # NotAssociative propagates and fails the test
                make_group(table)
            except (NoIdentity, NoInverse, NotLatinSquare):
                pass
        else:
            with pytest.raises(NotAssociative, match=re.escape(f"(a, b, c) = {triple}")):
                make_group(table)

    def test_out_of_range_entry(self):
        with pytest.raises(NotLatinSquare):
            make_group([[0, 1], [1, 7]])

    def test_ragged_rows(self):
        with pytest.raises(NotLatinSquare):
            make_group([[0, 1], [1]])

    def test_no_identity(self):
        with pytest.raises(NoIdentity):
            make_group([[0, 0], [0, 0]])

    def test_no_inverse(self):
        # max(a, b) is an associative monoid, but 1 has no inverse
        with pytest.raises(NoInverse):
            make_group([[0, 1], [1, 1]])

    @pytest.mark.parametrize("token", BUILTIN_TOKENS)
    def test_associativity_exhaustive(self, token):
        g = builtin_group(token)
        t = g.table
        for a in g.elements:
            for b in g.elements:
                ab = t[a][b]
                for c in g.elements:
                    assert t[ab][c] == t[a][t[b][c]]


def regex_family_degree(token):
    """The token parse before ``groups._family_degree``: strip, then two regexes."""
    tok = token.strip()
    m = re.match(r"^([ZzDdSs])(\d+)$", tok)
    if m:
        letter, n = m.group(1).upper(), int(m.group(2))
        tok = {"Z": f"cyclic({n})", "D": f"dihedral({n})", "S": f"symmetric({n})"}[letter]
    m = re.match(r"^(cyclic|dihedral|symmetric)\((\d+)\)$", tok)
    return (m.group(1), int(m.group(2))) if m else None


FAMILY_TOKENS = [
    *DEFAULT_GROUPS, "S4", "D8", "direct_product(Z2,Q8)", "quaternion8", "klein4",
    "Z4", "z4", "D4", "d4", "S3", "s3", "CYCLIC(4)", "Cyclic(4)", "cyclic(4)", "dihedral(8)",
    "symmetric(4)", " Z4 ", "\tcyclic(4)\n", "Z4\n", "\x1cS3\x1f",
    "Z04", "z0004", "cyclic(004)", "S00", "Z0",
    "", " ", "Z", "z", "D", "S", "Q", "X", "(", ")", "()", "ZZ4", "Q8", "q8", "V4",
    "Z 4", "cyclic()", "cyclic(4", "cyclic 4", "cyclic(4))", "cyclic((4))", "cyclic( 4)",
    "cyclic(+4)", "cyclic(-4)", "Z-4", "Z+4", "Z4.0", "Z_4", "Z4_0", "cyclic(4_0)", "cyclic4",
    "Z\u0664", "cyclic(\u0664)", "S\uff13", "Z\u00b2", "Z\u00bd", "Z\u56db", "\u017f4", "\uff3a4",
]


class TestBuiltins:
    def test_cyclic_one_is_trivial(self):
        assert builtin_group("cyclic(1)").order == 1

    def test_symmetric_3(self):
        s3 = builtin_group("symmetric(3)")
        assert s3.order == 6
        assert center(s3) != frozenset(s3.elements)  # not abelian

    def test_quaternion_center(self):
        q8 = builtin_group("quaternion8")
        assert q8.order == 8
        assert tuple(sorted(center(q8))) == (0, 1)

    def test_aliases_match_canonical_tokens(self):
        assert builtin_group("Z4") == builtin_group("cyclic(4)")
        assert builtin_group("S3") == builtin_group("symmetric(3)")
        assert builtin_group("D4") == builtin_group("dihedral(4)")
        assert builtin_group("Q8") == builtin_group("quaternion8")
        assert builtin_group("V4") == builtin_group("klein4")

    @pytest.mark.parametrize("token", FAMILY_TOKENS)
    def test_family_tokens_parse_as_the_regexes_did(self, token):
        assert groups._family_degree(token.strip()) == regex_family_degree(token)

    def test_non_ascii_digits_name_the_degree(self):
        assert builtin_group("Z\u0664") == builtin_group("Z4")  # ARABIC-INDIC DIGIT FOUR
        assert builtin_group("cyclic(\u0664)") == builtin_group("Z4")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symmetric_table_is_the_composition_table(self, n):
        perms = list(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        literal = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
        assert groups._symmetric_table(n) == literal

    def test_dihedral_order(self):
        assert builtin_group("dihedral(5)").order == 10

    def test_direct_product(self):
        g = builtin_group("direct_product(cyclic(2),cyclic(3))")
        assert g.order == 6 and center(g) == frozenset(g.elements)  # abelian

    @pytest.mark.parametrize("token", ["XYZ", "cyclic(17)", "dihedral(9)", "symmetric(5)", "Z0"])
    def test_unknown_tokens(self, token):
        with pytest.raises(UnknownGroup):
            builtin_group(token)

    def test_every_product_up_to_the_order_bound_nests_within_the_depth_bound(self):
        """Eight factors of order 2 reach order 256; chained, they nest 8 deep."""
        token = "cyclic(2)"
        for _ in range(7):
            token = f"direct_product(cyclic(2),{token})"
        assert builtin_group(token).order == 256

    @pytest.mark.parametrize("levels", [9, 600])
    def test_deeper_nesting_is_unknown_not_a_recursion_error(self, levels):
        """Order-1 factors never reach the order bound; the depth bound stops them."""
        token = "Z2"
        for _ in range(levels):
            token = f"direct_product(Z1,{token})"
        message = f"token nests parentheses {levels} deep, above the bound 8"
        with pytest.raises(UnknownGroup, match=re.escape(message)):
            builtin_group(token)


class TestStructure:
    def test_center_of_cyclic_is_whole_group(self):
        z6 = builtin_group("Z6")
        assert tuple(sorted(center(z6))) == tuple(z6.elements)

    def test_center_of_s3_is_trivial(self):
        assert tuple(sorted(center(builtin_group("S3")))) == (0,)

    @pytest.mark.parametrize("token", ["V4", "S3", "D4", "Q8"])
    def test_center_is_the_frozenset_quotient_group_takes(self, token):
        g = builtin_group(token)
        z = center(g)
        assert z == frozenset(
            a for a in g.elements if all(g.table[a][b] == g.table[b][a] for b in g.elements)
        )
        q, cmap = quotient_group(g, z)
        assert q.order * len(z) == g.order
        assert {x for x in g.elements if cmap[x] == q.identity} == z

    def test_abelian_classes_are_singletons(self):
        z5 = builtin_group("Z5")
        assert conjugacy_classes(z5) == tuple((x,) for x in z5.elements)

    def test_s3_class_sizes(self):
        sizes = sorted(len(c) for c in conjugacy_classes(builtin_group("S3")))
        assert sizes == [1, 2, 3]

    def test_q8_class_sizes(self):
        sizes = sorted(len(c) for c in conjugacy_classes(builtin_group("Q8")))
        assert sizes == [1, 1, 2, 2, 2]

    @pytest.mark.parametrize("token", BUILTIN_TOKENS)
    def test_class_sizes_sum_and_divide(self, token):
        g = builtin_group(token)
        classes = conjugacy_classes(g)
        assert sum(len(c) for c in classes) == g.order
        assert all(g.order % len(c) == 0 for c in classes)

    def test_trivial_subgroup_is_normal(self):
        s3 = builtin_group("S3")
        assert is_normal_subgroup(s3, [0])

    def test_a3_is_normal(self):
        s3 = builtin_group("S3")
        assert is_normal_subgroup(s3, [0, 3, 4])

    def test_transposition_subgroup_not_normal(self):
        s3 = builtin_group("S3")
        sub = (0, 1)
        assert sub in [tuple(sorted(s)) for s in all_subgroups(s3)]
        assert not is_normal_subgroup(s3, sub)

    def test_non_subgroup_is_not_normal(self):
        s3 = builtin_group("S3")
        assert not is_normal_subgroup(s3, [0, 1, 2])

    def test_empty_set_is_not_a_subgroup(self):
        assert not is_subgroup(builtin_group("Z4"), [])


class TestElementRange:
    """Every caller-supplied element set is range checked by ``is_subgroup``;
    a negative index must not wrap round to the end of a table row."""

    @pytest.mark.parametrize("token, members, bad", [
        ("Z2", [0, 1, -1], -1),
        ("Z4", [0, 2, 7], 7),
        ("Z4", [9, 0, 7, 2], 7),
        ("Z4", [5, -3, 0], -3),
    ])
    def test_is_subgroup_names_the_least_index_outside(self, token, members, bad):
        g = builtin_group(token)
        message = re.escape(f"element index {bad} outside 0..{g.order - 1}")
        with pytest.raises(GroupError, match=f"^{message}$"):
            is_subgroup(g, members)

    @pytest.mark.parametrize("check", [is_normal_subgroup, quotient_group])
    def test_normal_subgroup_and_quotient_reach_the_check(self, check):
        with pytest.raises(GroupError, match=r"^element index 7 outside 0\.\.3$"):
            check(builtin_group("Z4"), [0, 2, 7])

    def test_not_normal_names_the_members_sorted(self):
        with pytest.raises(NotNormal, match=r"^\(0, 1\) is not a normal subgroup of S3$"):
            quotient_group(builtin_group("S3"), [1, 0])


class TestQuotient:
    def test_quotient_by_trivial_is_isomorphic_copy(self):
        s3 = builtin_group("S3")
        q, cmap = quotient_group(s3, [0])
        assert q.order == s3.order
        assert is_group_isomorphism(s3, q, cmap)

    def test_s3_mod_a3(self):
        s3 = builtin_group("S3")
        q, cmap = quotient_group(s3, [0, 3, 4])
        assert q.order == 2
        assert tuple(cmap) == (0, 1, 1, 0, 0, 1)  # the sign of each permutation

    def test_q8_mod_center_is_klein_four(self):
        q8 = builtin_group("Q8")
        q, _ = quotient_group(q8, center(q8))
        v4 = builtin_group("V4")
        assert any(is_group_isomorphism(q, v4, p) for p in permutations(range(4)))

    def test_not_normal_rejected(self):
        s3 = builtin_group("S3")
        with pytest.raises(NotNormal):
            quotient_group(s3, [0, 1])

    @pytest.mark.parametrize("token", ["Z6", "S3", "D4", "Q8"])
    def test_quotient_by_center_order(self, token):
        g = builtin_group(token)
        q, _ = quotient_group(g, center(g))
        assert q.order * len(center(g)) == g.order


class TestDerivedGroups:
    """``derived_group``: one validated group object per table until
    ``clear_derived``, a registered group's where there is one."""

    @pytest.fixture(autouse=True)
    def empty_store(self):
        clear_derived()
        yield
        clear_derived()

    def test_a_table_keeps_its_first_object_until_the_caches_are_emptied(self):
        q8, z2 = builtin_group("Q8"), builtin_group("Z2")
        first, _ = quotient_group(q8, (0, 1, 2, 3))
        assert first.name == "Q8/N4" and first.table == z2.table
        assert quotient_group(q8, (0, 1, 4, 5))[0] is first
        register_group(z2)  # the table has its object already
        assert quotient_group(q8, (0, 1, 6, 7))[0] is first
        clear_derived()
        assert quotient_group(q8, (0, 1, 2, 3))[0] is not first

    def test_an_abelian_registered_group_is_its_own_opposite(self):
        z4, s3 = builtin_group("Z4"), builtin_group("S3")
        register_group(z4)
        register_group(s3)
        assert opposite_group(z4) is z4
        assert opposite_group(s3).table != s3.table and opposite_group(s3).name == "S3^op"

    def test_a_table_that_is_no_group_raises_each_time(self):
        for _ in range(2):
            with pytest.raises(NoIdentity):
                derived_group([[0, 0], [0, 0]], "bad")


class TestCrispAutomorphisms:
    def test_trivial_group(self):
        assert crisp_automorphisms(builtin_group("Z1")) == ((0,),)

    @pytest.mark.parametrize(
        "token,count", [("S3", 6), ("V4", 6), ("Z4", 2), ("Z8", 4), ("Q8", 24), ("D4", 8)]
    )
    def test_counts(self, token, count):
        assert len(crisp_automorphisms(builtin_group(token))) == count

    @pytest.mark.parametrize("token", ["Z6", "S3", "V4", "Q8", "D4"])
    def test_matches_brute_force(self, token):
        g = builtin_group(token)
        assert list(crisp_automorphisms(g)) == brute_force_automorphisms(g)

    @pytest.mark.parametrize("token", ["S3", "V4", "Z8"])
    def test_closed_under_composition_and_inverse(self, token):
        g = builtin_group(token)
        auts = set(crisp_automorphisms(g))
        for p in auts:
            assert tuple(sorted(range(g.order), key=lambda x: p[x])) in auts  # inverse
            for q in auts:
                assert tuple(p[q[x]] for x in range(g.order)) in auts

    def test_too_large(self):
        with pytest.raises(GroupTooLarge):
            crisp_automorphisms(builtin_group("direct_product(cyclic(16),cyclic(2))"))

    def test_product_orders_prune_the_candidates(self, monkeypatch):
        """S4's generators (9, 1) have orders 4 and 2, and 6 * 9 = 54 image
        choices keep those orders; keeping the order of their product too
        leaves the 24 automorphisms, so 24 extensions are tested, not 54."""
        calls, check = [], groups.is_group_isomorphism

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(groups, "is_group_isomorphism", counted)
        s4 = builtin_group("S4")
        clear_derived()
        assert len(crisp_automorphisms(s4)) == 24
        assert generating_sequence(s4) == (9, 1) and len(calls) == 24

    @pytest.mark.parametrize("token", sorted(RECORDED_AUTOMORPHISMS))
    def test_matches_recorded_tuple(self, token):
        """The sorted tuple does not depend on the generators the search starts from."""
        auts = crisp_automorphisms(builtin_group(token))
        digest = hashlib.sha256(repr(auts).encode()).hexdigest()[:16]
        assert (len(auts), digest) == RECORDED_AUTOMORPHISMS[token]


class TestGeneratingSequence:
    @pytest.mark.parametrize("token", sorted(RECORDED_AUTOMORPHISMS))
    def test_generates_the_group(self, token):
        g = builtin_group(token)
        gens = generating_sequence(g)
        assert closure(g, gens) == frozenset(g.elements)
        assert len(set(gens)) == len(gens)

    @pytest.mark.parametrize("token", ["S4", "Q8"])
    def test_two_generators(self, token):
        assert len(generating_sequence(builtin_group(token))) == 2

    def test_trivial_group(self):
        assert generating_sequence(builtin_group("Z1")) == (0,)

    def test_ties_go_to_the_smaller_index(self):
        # every non-identity element of Z5 generates it; 2-cycles tie in S3
        assert generating_sequence(builtin_group("Z5")) == (1,)
        assert generating_sequence(builtin_group("S3")) == (3, 1)

    @pytest.mark.parametrize("token", sorted(RECORDED_AUTOMORPHISMS))
    def test_matches_the_full_greedy_scan(self, token):
        """Stopping at the first candidate that generates everything picks
        what the full ``max`` picks (the tokens include S4, D8 and Z2xQ8)."""
        g = builtin_group(token)
        assert generating_sequence(g) == greedy_generating_sequence(g)

    def test_matches_the_full_greedy_scan_on_every_derived_group(self, monkeypatch):
        """Every group that a campaign over S4, D8 and Z2xQ8 derives (their
        quotients, opposites and class groups) gets the full scan's answer."""
        from fuzzaut import harness

        made, make = [], groups.make_group

        def recorded(table, name=None):
            made.append(make(table, name))
            return made[-1]

        monkeypatch.setattr(groups, "make_group", recorded)
        harness.run_campaign(harness.Campaign(groups=("S4", "D8", "direct_product(Z2,Q8)")))
        names = {g.name for g in made}
        assert any("/N" in name for name in names) and any(name.endswith("^op") for name in names)
        for g in made:
            assert generating_sequence(g) == greedy_generating_sequence(g), g.name


class TestIsomorphismPredicate:
    def test_identity(self):
        s3 = builtin_group("S3")
        assert is_group_isomorphism(s3, s3, tuple(s3.elements))

    def test_z4_never_matches_klein4(self):
        z4, v4 = builtin_group("Z4"), builtin_group("V4")
        assert not any(is_group_isomorphism(z4, v4, p) for p in permutations(range(4)))

    def test_crt_map(self):
        prod = builtin_group("direct_product(cyclic(2),cyclic(3))")
        z6 = builtin_group("Z6")
        crt = tuple((3 * (i // 3) + 4 * (i % 3)) % 6 for i in range(6))
        assert is_group_isomorphism(prod, z6, crt)

    def test_wrong_length(self):
        z4 = builtin_group("Z4")
        assert not is_group_isomorphism(z4, z4, (0, 1, 2))


class TestEnumerations:
    def test_normal_subgroups_of_s3(self):
        s3 = builtin_group("S3")
        assert [tuple(sorted(s)) for s in normal_subgroups(s3)] == [
            (0,),
            (0, 3, 4),
            (0, 1, 2, 3, 4, 5),
        ]

    @pytest.mark.parametrize(
        "token",
        sorted(RECORDED_AUTOMORPHISMS) + ["direct_product(D4,Z4)", "direct_product(Z4,Z8)"],
    )
    def test_normal_subgroups_are_the_normal_members_of_the_lattice(self, token):
        g = builtin_group(token)
        expected = tuple(
            s
            for s in all_subgroups(g)
            if is_normal_subgroup(g, s)
        )
        assert normal_subgroups(g) == expected

    @pytest.mark.parametrize(
        "token", [t for t in sorted(RECORDED_AUTOMORPHISMS) if builtin_group(t).order <= 8]
    )
    def test_all_subgroups_match_brute_force(self, token):
        g = builtin_group(token)
        assert list(all_subgroups(g)) == brute_force_subgroups(g)

    def test_all_subgroups_of_s3(self):
        s3 = builtin_group("S3")
        sizes = sorted(len(s) for s in all_subgroups(s3))
        assert sizes == [1, 2, 2, 2, 3, 6]

    def test_derived_series(self):
        s3 = builtin_group("S3")
        assert [tuple(sorted(s)) for s in derived_series(s3)] == [
            (0, 1, 2, 3, 4, 5),
            (0, 3, 4),
            (0,),
        ]
        q8 = builtin_group("Q8")
        assert [tuple(sorted(s)) for s in derived_series(q8)] == [
            tuple(range(8)),
            (0, 1),
            (0,),
        ]

    def test_opposite_group_roundtrip(self):
        s3 = builtin_group("S3")
        op = opposite_group(s3)
        assert op.table == tuple(
            tuple(s3.table[b][a] for b in s3.elements) for a in s3.elements
        )
        assert opposite_group(op).table == s3.table


KERNEL_TOKENS = DEFAULT_GROUPS + ("S4", "D6", "D8", "direct_product(Z2,Q8)")


def subgroup_by_definition(group, members):
    """Holds the identity and every product of two members: the |s|^2 scan."""
    s, t = frozenset(members), group.table
    return group.identity in s and all(t[a][b] in s for a in s for b in s)


def normal_by_definition(group, members):
    """A subgroup whose every conjugate g^-1 a g, over all g and members a, is a member."""
    s, t, inv = frozenset(members), group.table, group.inverses
    return subgroup_by_definition(group, s) and all(
        t[t[inv[g]][a]][g] in s for g in group.elements for a in s
    )


def first_pair_by_definition(g, h, mapping):
    """The first (a, b) of the n^2 lexicographic scan with mapping[a*b] != mapping[a]*mapping[b]."""
    return next(
        (
            (a, b)
            for a in g.elements
            for b in g.elements
            if mapping[g.table[a][b]] != h.table[mapping[a]][mapping[b]]
        ),
        None,
    )


class TestCrispKernelsMatchTheDefinitions:
    """``is_subgroup`` closes a greedy generating set of the members,
    ``is_normal_subgroup`` conjugates by the generators only and
    ``first_non_multiplicative`` multiplies by them only; the literal
    definitions over every element are the oracles."""

    @pytest.mark.parametrize("token", ["Z4", "V4", "S3"])
    def test_subgroup_test_on_every_subset(self, token):
        g = builtin_group(token)
        subsets = [set(c) for k in range(g.order + 1) for c in combinations(g.elements, k)]
        verdicts = [is_subgroup(g, s) for s in subsets]
        assert verdicts == [subgroup_by_definition(g, s) for s in subsets]
        assert sum(verdicts) == len(all_subgroups(g))

    @given(data=st.data(), token=st.sampled_from(["D4", "Q8", "S4"]))
    @settings(max_examples=200, deadline=None)
    def test_subgroup_test_on_drawn_subsets(self, data, token):
        """Any subset, or a subgroup with up to two elements added and two taken away."""
        g = builtin_group(token)
        element = st.sampled_from(g.elements)
        if data.draw(st.booleans()):
            members = data.draw(st.sets(element))
        else:
            members = set(data.draw(st.sampled_from(all_subgroups(g))))
            members |= data.draw(st.sets(element, max_size=2))
            members -= data.draw(st.sets(element, max_size=2))
        assert is_subgroup(g, members) == subgroup_by_definition(g, members)

    @pytest.mark.parametrize("token", KERNEL_TOKENS)
    def test_normality_of_every_subgroup(self, token):
        g = builtin_group(token)
        verdicts = [is_normal_subgroup(g, s) for s in all_subgroups(g)]
        assert verdicts == [normal_by_definition(g, s) for s in all_subgroups(g)]
        # every subgroup of an abelian group, Q8 or Z2xQ8 is normal; not so in the others
        assert all(verdicts) == (token not in ("S3", "D4", "S4", "D6", "D8"))

    @pytest.mark.parametrize("token", KERNEL_TOKENS)
    def test_every_crisp_automorphism_is_multiplicative(self, token):
        g = builtin_group(token)
        for sigma in crisp_automorphisms(g):
            assert first_pair_by_definition(g, g, sigma) is None
            assert first_non_multiplicative(g, g, sigma) is None

    @given(data=st.data(), token=st.sampled_from(KERNEL_TOKENS))
    @settings(max_examples=200, deadline=None)
    def test_mappings_name_the_first_pair(self, data, token):
        """Any permutation; an automorphism with up to two pairs of images
        swapped, which fails away from the identity; or a mapping that
        multiplies by the first generator s and may fail by the others:
        sigma(x r^-1) * t_r, for an automorphism sigma, r the least element
        of the coset <s> x and t_r drawn, the identity on <s> itself."""
        g = builtin_group(token)
        kind = data.draw(st.sampled_from(["permutation", "swapped", "first generator"]))
        element = st.sampled_from(g.elements)
        if kind == "permutation":
            mapping = data.draw(st.permutations(g.elements))
        elif kind == "swapped":
            mapping = list(data.draw(st.sampled_from(crisp_automorphisms(g))))
            for a, b in data.draw(st.lists(st.tuples(element, element), max_size=2)):
                mapping[a], mapping[b] = mapping[b], mapping[a]
        else:
            sigma = data.draw(st.sampled_from(crisp_automorphisms(g)))
            t, inv = g.table, g.inverses
            sub = closure(g, generating_sequence(g)[:1])
            rep = [min(t[h][x] for h in sub) for x in g.elements]
            shift = {r: g.identity if r in sub else data.draw(element) for r in sorted(set(rep))}
            mapping = [t[sigma[t[x][inv[r]]]][shift[r]] for x, r in zip(g.elements, rep)]
        assert first_non_multiplicative(g, g, mapping) == first_pair_by_definition(g, g, mapping)
