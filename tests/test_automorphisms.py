"""Fuzzy automorphisms, innerness, conjugation, and the skeleton-class group.

Each law is asked of its checker (``check_automorphism``,
``check_inner_conjugates``, ...) on maps built with ``maps``."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from fuzzaut import automorphisms
from fuzzaut.automorphisms import (
    AutomorphismError,
    build_aut_class_group,
    check_associativity,
    check_automorphism,
    check_composites,
    check_identity_law,
    check_inner_conjugates,
    composite_table,
    is_class_preserving,
    is_inner,
)
from fuzzaut.groups import (
    NotAssociative,
    builtin_group,
    center,
    conjugations,
    crisp_automorphisms,
    is_group_isomorphism,
    make_group,
)
from fuzzaut.harness import _SUITES, DEFAULT_GROUPS, _Group, _Instance
from fuzzaut.homs import is_fuzzy_homomorphism, lift_hom
from fuzzaut.maps import (
    FuzzyMap,
    compose_maps,
    crisp_map,
    identity_map,
    inverse_map,
    make_fuzzy_map,
)
from fuzzaut.subsets import chain_strategy, class_strategy
from fuzzaut.induced import induced_family_raw

S3 = builtin_group("S3")
Z2 = builtin_group("Z2")
Z4 = builtin_group("Z4")
V4 = builtin_group("V4")

# identity skeleton, but f(1, 0) = 0 misses the sup min(f(0, 1), f(1, 1)) = 1/2
BIJECTIVE_NON_HOM = make_fuzzy_map(Z2, Z2, [[1, Fraction(1, 2)], [0, 1]])


def sample_automorphisms(group, mu):
    """The distinct lifts and family maps, each certified by ``check_automorphism``."""
    lifts = [lift_hom(s, mu, group) for s in crisp_automorphisms(group)]
    family = induced_family_raw(group, mu)
    seen = {}
    for fmap in lifts + family:
        seen.setdefault(fmap.grades, fmap)
    for fmap in seen.values():
        assert check_automorphism(fmap) == (True, None)
    return list(seen.values())


def rejection(f):
    """``check_automorphism``'s witness for f, which it must reject."""
    ok, witness = check_automorphism(f)
    assert not ok
    return witness


class TestCheckAutomorphism:
    def test_crisp_identity(self):
        f = crisp_map(S3, S3, tuple(S3.elements))
        assert check_automorphism(f) == (True, None)
        assert f.images == tuple(S3.elements)

    def test_induced_maps_validate(self):
        mu = class_strategy(S3)
        for fmap in induced_family_raw(S3, mu):
            assert check_automorphism(fmap) == (True, None)

    def test_non_bijective_endomorphism_rejected(self):
        mu = chain_strategy(Z4)
        doubling = tuple((2 * x) % 4 for x in Z4.elements)
        f = lift_hom(doubling, mu, Z4)
        assert rejection(f) == f"fuzzy images {f.images} repeat a value"

    def test_bijective_non_homomorphism_rejected(self):
        report = is_fuzzy_homomorphism(BIJECTIVE_NON_HOM)
        assert not report
        assert rejection(BIJECTIVE_NON_HOM) == str(report.witness)

    def test_skeleton_off_the_unit_entries_rejected(self):
        rows = induced_family_raw(S3, class_strategy(S3))[S3.identity].grades
        sigma = crisp_automorphisms(S3)[2]  # bijective, and not the rows' own skeleton
        witness = rejection(FuzzyMap(S3, S3, rows, sigma))
        assert witness.startswith(f"skeleton sends 1 to {sigma[1]}, but row 1 grades")

    def test_mismatched_groups_rejected(self):
        f = crisp_map(S3, builtin_group("Z2"), (0, 1, 1, 0, 0, 1))
        assert rejection(f) == "domain and codomain must be the same group"


def automorphism_oracle(f):
    """check_automorphism read from the Fraction grades: (verdict, witness)."""
    if f.domain != f.codomain:
        return False, "domain and codomain must be the same group"
    for x, y in enumerate(f.images):
        if f.grades[x][y] != 1:
            return False, f"skeleton sends {x} to {y}, but row {x} grades {y} as {f.grades[x][y]}"
    report = is_fuzzy_homomorphism(f)
    if not report:
        return False, str(report.witness)
    if len(set(f.images)) != len(f.images):
        return False, f"fuzzy images {f.images} repeat a value"
    return True, None


class TestCheckAutomorphismMatchesGrades:
    """The grade-1 test reads the rank rows; the Fraction grades are the oracle."""

    @given(data=st.data(), token=st.sampled_from(["Z2", "Z4", "V4", "S3", "Q8"]))
    @settings(max_examples=150, deadline=None)
    def test_perturbed_maps(self, data, token):
        group = builtin_group(token)
        mu = data.draw(st.sampled_from([chain_strategy(group), class_strategy(group)]))
        base = data.draw(st.sampled_from(sample_automorphisms(group, mu)))
        rows = [list(row) for row in base.grades]
        cells = st.tuples(st.sampled_from(group.elements), st.sampled_from(group.elements))
        for x, y in data.draw(st.lists(cells, max_size=4)):
            rows[x][y] = data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1)]))
        images = list(base.images)
        if data.draw(st.booleans()):
            images[data.draw(st.sampled_from(group.elements))] = data.draw(
                st.sampled_from(group.elements)
            )
        f = FuzzyMap(group, group, tuple(map(tuple, rows)), tuple(images))
        assert check_automorphism(f) == automorphism_oracle(f)


class TestComposition:
    """Composites and transposes of automorphisms are automorphisms again."""

    def test_identity_laws(self):
        mu = class_strategy(S3)
        ident = identity_map(S3)
        for aut in sample_automorphisms(S3, mu):
            assert check_identity_law(aut) == (True, None)
            for composed in (compose_maps(aut, ident), compose_maps(ident, aut)):
                assert check_automorphism(composed) == (True, None)
                assert composed.images == aut.images

    def test_inverse_laws(self):
        mu = class_strategy(S3)
        ident = identity_map(S3)
        for aut in sample_automorphisms(S3, mu):
            inv = inverse_map(aut)
            assert check_automorphism(inv) == (True, None)
            for composed in (compose_maps(aut, inv), compose_maps(inv, aut)):
                assert check_automorphism(composed) == (True, None)
                assert composed.images == ident.images

    def test_induced_composition_reverses_labels(self):
        mu = class_strategy(S3)
        family = induced_family_raw(S3, mu)
        composed = compose_maps(family[1], family[3])
        assert check_automorphism(composed) == (True, None)
        assert composed.images == family[S3.table[3][1]].images


class TestIdentity:
    def test_skeleton(self):
        assert check_automorphism(identity_map(S3)) == (True, None)
        assert identity_map(S3).images == tuple(S3.elements)

    def test_equiv_with_graded_identity(self):
        for mu in (chain_strategy(S3), class_strategy(S3)):
            graded = induced_family_raw(S3, mu)[S3.identity]
            assert identity_map(S3).images == graded.images

    def test_is_homomorphism(self):
        assert is_fuzzy_homomorphism(identity_map(S3)).verdict


class TestClassPreserving:
    def test_identity_is_class_preserving(self):
        assert is_class_preserving(identity_map(S3))

    def test_induced_maps_are_class_preserving(self):
        mu = class_strategy(S3)
        for fmap in induced_family_raw(S3, mu):
            assert is_class_preserving(fmap)

    def test_klein4_swap_is_not(self):
        mu = class_strategy(V4)
        swap = lift_hom((0, 2, 1, 3), mu, V4)
        assert not is_class_preserving(swap)


class TestInner:
    def test_identity_witness_is_least_index(self):
        assert is_inner(identity_map(S3)) == 0
        assert is_inner(identity_map(Z4)) == 0

    def test_induced_witness_conjugates_like_the_label(self):
        mu = class_strategy(S3)
        family = induced_family_raw(S3, mu)
        for g in S3.elements:
            aut = family[g]
            assert check_automorphism(aut) == (True, None)
            w = is_inner(aut)
            assert w is not None
            assert aut.images == conjugations(S3)[w]

    def test_witness_in_same_center_coset(self):
        q8 = builtin_group("Q8")
        mu = class_strategy(q8)
        family = induced_family_raw(q8, mu)
        z = set(center(q8))
        for g in q8.elements:
            w = is_inner(family[g])
            assert q8.table[w][q8.inverses[g]] in z or q8.table[q8.inverses[g]][w] in z

    def test_klein4_swap_is_outer(self):
        mu = class_strategy(V4)
        swap = lift_hom((0, 2, 1, 3), mu, V4)
        assert check_automorphism(swap) == (True, None)
        assert is_inner(swap) is None


def conjugate(f, f_g):
    """f^-1 . f_g . f, checked as Lemma 3.9 asks: an inner fuzzy automorphism."""
    f_inv = inverse_map(f)
    assert check_inner_conjugates(f, f_inv, [f_g], (0,)) == (True, None)
    return compose_maps(f_inv, compose_maps(f_g, f))


class TestConjugation:
    def test_conjugating_by_identity_keeps_class(self):
        mu = class_strategy(S3)
        family = induced_family_raw(S3, mu)
        ident = identity_map(S3)
        for g in S3.elements:
            assert conjugate(ident, family[g]).images == family[g].images

    def test_conjugate_of_inner_is_inner(self):
        mu = class_strategy(S3)
        family = induced_family_raw(S3, mu)
        samples = sample_automorphisms(S3, mu)
        for aut in samples:
            for g in (1, 3):
                assert is_inner(conjugate(aut, family[g])) is not None

    def test_trivial_inner_group_on_klein4(self):
        mu = class_strategy(V4)
        swap = lift_hom((0, 2, 1, 3), mu, V4)
        ident_inner = induced_family_raw(V4, mu)[V4.identity]
        assert conjugate(swap, ident_inner).images == identity_map(V4).images


def class_group(maps):
    """``build_aut_class_group`` over the maps' own ``composite_table``."""
    return build_aut_class_group(maps, composite_table(maps))


class TestClassGroup:
    @pytest.mark.parametrize("token", ["Z4", "V4", "S3", "D4"])
    def test_matches_crisp_automorphism_group(self, token):
        group = builtin_group(token)
        mu = class_strategy(group)
        skeletons, table = class_group(sample_automorphisms(group, mu))
        crisp = crisp_automorphisms(group)
        assert set(skeletons) == set(crisp)
        assert table.order == len(crisp)

    def test_classes_are_sorted_and_deduplicated(self):
        mu = class_strategy(S3)
        skeletons, _ = class_group(sample_automorphisms(S3, mu) * 2)
        assert list(skeletons) == sorted(set(skeletons))

    def test_class_to_skeleton_is_injective_homomorphism(self):
        mu = class_strategy(S3)
        skeletons, table = class_group(sample_automorphisms(S3, mu))
        index = {sk: i for i, sk in enumerate(skeletons)}
        for a in skeletons:
            for b in skeletons:
                composed = tuple(a[b[x]] for x in S3.elements)
                assert table.table[index[a]][index[b]] == index[composed]

    def test_klein4_class_group_is_symmetric_3(self):
        mu = class_strategy(V4)
        _, table = class_group(sample_automorphisms(V4, mu))
        s3 = builtin_group("S3")  # the automorphisms of V4 permute its three involutions
        assert table.order == 6
        assert center(table) != frozenset(table.elements)  # not abelian
        assert any(is_group_isomorphism(table, s3, p) for p in permutations(range(6)))

    def test_composites_that_leave_the_sample_set(self):
        full = s3_samples()
        with pytest.raises(AutomorphismError, match="not closed"):
            class_group([full["lift:aut1"], full["lift:aut3"]])


def associativity_oracle(named, compose=compose_maps):
    """Literal Lemma 3.2: both sides of every triple, in lexicographic order."""
    for a in named:
        for b in named:
            for c in named:
                f, g, h = named[a], named[b], named[c]
                if compose(compose(f, g), h).images != compose(f, compose(g, h)).images:
                    return False, f"associativity fails at ({a}, {b}, {c})"
    return True, None


def s3_samples():
    return {tag: f for tag, f in _Instance(_Group("S3"), "class").aut_samples}


def table_of(named):
    """The ``composite_table`` of the named maps, through the ``compose_maps`` bound now."""
    return composite_table(list(named.values()))


def reversed_after(first):
    """compose_maps, except that a composite whose left operand is ``first``
    is built in the opposite order: a function of the skeleton classes that
    is not associative on S3."""

    def compose(f, g):
        return compose_maps(g, f) if f.images == first.images else compose_maps(f, g)

    return compose


def reversed_for_one_object(first, second):
    """compose_maps, except for the one pair of objects (first, second):
    composites no longer depend on skeleton classes alone."""

    def compose(f, g):
        return compose_maps(g, f) if f is first and g is second else compose_maps(f, g)

    return compose


class TestAssociativityCheck:
    """The class-table path decides; the literal triple scan is the oracle."""

    @pytest.mark.parametrize("token", DEFAULT_GROUPS)
    @pytest.mark.parametrize("mu", ["chain", "class"])
    def test_default_instances(self, token, mu):
        named = dict(_Instance(_Group(token), mu).aut_samples)
        expected = associativity_oracle(named)
        assert check_associativity(named, table_of(named)) == expected == (True, None)

    def test_non_associative_composition_on_a_closed_sample_set(self, monkeypatch):
        named = s3_samples()
        fake = reversed_after(named["lift:aut1"])
        monkeypatch.setattr(automorphisms, "compose_maps", fake)
        with pytest.raises(NotAssociative):  # make_group's kernel sees it
            build_aut_class_group(list(named.values()), table_of(named))
        expected = associativity_oracle(named, fake)
        assert not expected[0]
        assert check_associativity(named, table_of(named)) == expected

    def test_composites_of_one_class_pair_that_disagree(self, monkeypatch):
        named = s3_samples()
        first, second = named["lift:aut1"], named["lift:aut3"]
        named["copy of lift:aut1"] = FuzzyMap(S3, S3, first.grades, first.images)
        fake = reversed_for_one_object(first, second)
        monkeypatch.setattr(automorphisms, "compose_maps", fake)
        with pytest.raises(AutomorphismError, match="compose to classes"):
            build_aut_class_group(list(named.values()), table_of(named))
        expected = associativity_oracle(named, fake)
        assert not expected[0]
        assert check_associativity(named, table_of(named)) == expected

    def test_composites_that_leave_the_sample_set(self, monkeypatch):
        full = s3_samples()
        named = {tag: full[tag] for tag in ("lift:aut1", "lift:aut3")}
        with pytest.raises(AutomorphismError, match="not closed"):
            build_aut_class_group(list(named.values()), table_of(named))
        expected = associativity_oracle(named)
        assert check_associativity(named, table_of(named)) == expected == (True, None)
        fake = reversed_after(named["lift:aut1"])
        monkeypatch.setattr(automorphisms, "compose_maps", fake)
        expected = associativity_oracle(named, fake)
        assert not expected[0]
        assert check_associativity(named, table_of(named)) == expected


def relabeled(group):
    """``group`` under a seeded relabeling that moves its identity off index 0."""
    labels = list(group.elements)
    random.Random(1).shuffle(labels)
    if labels[group.identity] == 0:
        labels = labels[1:] + labels[:1]
    table = [[0] * group.order for _ in group.elements]
    for a in group.elements:
        for b in group.elements:
            table[labels[a]][labels[b]] = labels[group.table[a][b]]
    return make_group(table, name=f"{group.name}~")


def literal_conjugate(group, x, g):
    """g^-1 x g, read off the table: the oracle of ``groups.conjugations``."""
    t = group.table
    return t[t[group.inverses[g]][x]][g]


def literal_is_inner(f):
    """``is_inner`` as a scan: the least g with f's skeleton equal to x -> g^-1 x g at every x."""
    group = f.domain
    for g in group.elements:
        if all(f.images[x] == literal_conjugate(group, x, g) for x in group.elements):
            return g
    return None


CONJUGATION_GROUPS = [
    builtin_group(token) for token in DEFAULT_GROUPS + ("S4", "D8", "direct_product(Z2,Q8)")
] + [relabeled(builtin_group("S4"))]


@pytest.mark.parametrize("group", CONJUGATION_GROUPS, ids=lambda group: group.name)
class TestConjugationTable:
    """``groups.conjugations`` and the readers that replaced their element-by-element scans."""

    def test_rows_are_the_conjugates(self, group):
        rows = conjugations(group)
        assert len(rows) == group.order
        for g, row in enumerate(rows):
            assert row == tuple(literal_conjugate(group, x, g) for x in group.elements)

    @pytest.mark.parametrize("strategy", [chain_strategy, class_strategy])
    def test_is_inner_matches_the_literal_scan(self, group, strategy):
        """On every lifted sample, every family map and every conjugate of a
        family map by a sample, including the samples that are not inner."""
        mu = strategy(group)
        samples = [lift_hom(sigma, mu, group) for sigma in crisp_automorphisms(group)]
        family = induced_family_raw(group, mu)
        conjugates = [
            compose_maps(inverse_map(f), compose_maps(f_g, f)) for f in samples for f_g in family
        ]
        for fmap in samples + family + conjugates:
            assert is_inner(fmap) == literal_is_inner(fmap)
        outer = sum(literal_is_inner(f) is None for f in samples)
        assert outer == len(samples) - len(set(conjugations(group)))


@lru_cache(maxsize=None)
def instance(token, mu):
    """A shared instance, for tests that patch nothing its cached tables read."""
    return _Instance(_Group(token), mu)


def lemma_3_1_oracle(ctx):
    """Literal Lemma 3.1: every ordered pair composed and checked, row-major."""
    for tag_f, f in ctx.aut_samples:
        for tag_g, g in ctx.aut_samples:
            ok, witness = check_automorphism(automorphisms.compose_maps(f, g))
            if not ok:
                return False, f"({tag_f}) . ({tag_g}): {witness}"
    return True, None


def lemma_3_9_oracle(ctx):
    """Literal Lemma 3.9: every conjugate of every label rep by every sample, checked
    to be inner, through the ``is_inner`` bound now, and then an automorphism."""
    for tag, f in ctx.aut_samples:
        for g in ctx.induced_reps:
            conj = compose_maps(inverse_map(f), compose_maps(ctx.induced_raw[g], f))
            if automorphisms.is_inner(conj) is None:
                return False, f"{tag}: conjugate of label {g}: skeleton {conj.images} is not inner"
            ok, witness = check_automorphism(conj)
            if not ok:
                return False, f"{tag}: conjugate of label {g}: {witness}"
    return True, None


def lemma_3_9_checked(ctx):
    """``check_inner_conjugates`` on each sample in turn, the first failure tagged."""
    for tag, f in ctx.aut_samples:
        ok, witness = check_inner_conjugates(f, inverse_map(f), ctx.induced_raw, ctx.induced_reps)
        if not ok:
            return False, f"{tag}: {witness}"
    return True, None


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call adds one to the returned list's only item."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("token", DEFAULT_GROUPS)
@pytest.mark.parametrize("mu", ["chain", "class"])
class TestCompositeTable:
    """The table-based Lemma 3.1 and Lemma 3.9 against their literal scans."""

    def test_every_cell_is_the_composite(self, token, mu):
        ctx = instance(token, mu)
        maps = [f for _, f in ctx.aut_samples]
        composites, cells, index = ctx.aut_products
        for f, row in zip(maps, cells):
            for g, c in zip(maps, row):
                h = compose_maps(f, g)
                assert (composites[c].images, composites[c].encoding) == (h.images, h.encoding)
        keys = {(h.images, h.encoding) for h in composites}
        assert len(keys) == len(composites) == len({c for row in cells for c in row})
        inputs = [(f.images, f.encoding) for f in maps]
        for h, a in zip(composites, index):
            key = (h.images, h.encoding)
            assert a == (inputs.index(key) if key in inputs else None)

    def test_lemma_3_1_matches_the_literal_scan(self, token, mu):
        ctx = instance(token, mu)
        expected = lemma_3_1_oracle(ctx)
        assert check_composites(dict(ctx.aut_samples), ctx.aut_products) == expected == (True, None)
        assert _SUITES["Lemma 3.1"](ctx) == expected

    def test_lemma_3_9_matches_the_literal_scan(self, token, mu):
        ctx = instance(token, mu)
        expected = lemma_3_9_oracle(ctx)
        assert lemma_3_9_checked(ctx) == expected == (True, None)
        assert _SUITES["Lemma 3.9"](ctx) == expected


class TestCompositeTableDefects:
    def test_lemma_3_1_names_the_first_of_two_failing_pairs(self, monkeypatch):
        """Pairs (0, 5) and (3, 1) give two different failing composites; the
        row-major first is the column-major second."""
        group = builtin_group("Q8")
        ctx = _Instance(_Group("Q8"), "class")
        maps = [f for _, f in ctx.aut_samples]

        def fake(f, g):
            h = compose_maps(f, g)
            if f is maps[0] and g is maps[5]:  # the skeleton leaves the unit entries
                images = (h.images[1], h.images[0]) + h.images[2:]
                return FuzzyMap(group, group, None, images, h.encoding)
            if f is maps[3] and g is maps[1]:  # a homomorphism, but not one-one
                return crisp_map(group, group, (group.identity,) * group.order)
            return h

        monkeypatch.setattr(automorphisms, "compose_maps", fake)
        expected = lemma_3_1_oracle(ctx)
        assert not expected[0]
        assert expected[1].startswith(f"({ctx.aut_samples[0][0]}) . ({ctx.aut_samples[5][0]})")
        assert check_composites(dict(ctx.aut_samples), ctx.aut_products) == expected
        assert _SUITES["Lemma 3.1"](ctx) == expected

    def test_composites_with_one_skeleton_and_value_list_stay_apart(self):
        f = lift_hom(Z4.elements, chain_strategy(Z4), Z4)
        rows = [list(row) for row in f.grades]
        rows[0][1], rows[0][2] = rows[0][2], rows[0][1]  # two grades below 1 trade places
        g = make_fuzzy_map(Z4, Z4, rows)
        assert (g.images, g.encoding[0]) == (f.images, f.encoding[0]) and g.encoding != f.encoding
        composites, cells, index = composite_table([f, g])
        assert len(composites) == 2
        for a, row in zip([f, g], cells):
            for b, c in zip([f, g], row):
                h = compose_maps(a, b)
                assert (composites[c].images, composites[c].encoding) == (h.images, h.encoding)
        for h, a in zip(composites, index):  # g is named as g only, never as f
            assert a == {f.encoding: 0, g.encoding: 1}.get(h.encoding)
        assert 1 in index
        values, rank_rows = f.encoding
        halved = tuple(v if v == 1 else v / 2 for v in values)
        e = FuzzyMap(Z4, Z4, None, f.images, (halved, rank_rows))  # f's ranks, other grades
        assert composite_table([f, e])[2] == [0, 1]

    def test_composites_that_are_not_picked_rows_stay_apart(self, monkeypatch):
        """A composition that leaves f's rows in place: pairs with one honest
        composite get different rows, and the table keeps each of them."""
        maps = [f for _, f in _Instance(_Group("S3"), "class").aut_samples]

        def rows_in_place(f, g):
            h = compose_maps(f, g)
            return FuzzyMap(g.domain, f.codomain, None, h.images, f.encoding)

        monkeypatch.setattr(automorphisms, "compose_maps", rows_in_place)
        composites, cells, _ = composite_table(maps)
        for f, row in zip(maps, cells):
            for g, c in zip(maps, row):
                h = rows_in_place(f, g)
                assert (composites[c].images, composites[c].encoding) == (h.images, h.encoding)

    def test_lemma_3_9_names_the_first_failing_conjugate(self, monkeypatch):
        ctx = _Instance(_Group("S3"), "class")
        identity = tuple(ctx.group.elements)
        monkeypatch.setattr(
            automorphisms, "is_inner", lambda f: 0 if f.images == identity else None
        )
        expected = lemma_3_9_oracle(ctx)
        assert not expected[0]
        assert lemma_3_9_checked(ctx) == expected
        assert _SUITES["Lemma 3.9"](ctx) == expected


class TestWorkCounts:
    """The law checkers' runs, counted where ``automorphisms`` binds them, not
    timed: Lemma 3.1 checks each distinct composite once, and Lemma 3.9 the
    conjugate of each (sample, label) pair."""

    @pytest.mark.parametrize("token, distinct", [("Q8", 24), ("direct_product(Z2,Q8)", 192)])
    @pytest.mark.parametrize("mu", ["chain", "class"])
    def test_lemma_3_1_checks_each_distinct_composite(self, monkeypatch, token, distinct, mu):
        calls = count_calls(monkeypatch, automorphisms, "check_automorphism")
        assert _SUITES["Lemma 3.1"](instance(token, mu)) == (True, None)
        assert calls == [distinct]

    @pytest.mark.parametrize("token, pairs", [("Q8", 96), ("direct_product(Z2,Q8)", 768)])
    def test_lemma_3_9_checks_each_sample_and_label(self, monkeypatch, token, pairs):
        """24 samples by 4 label representatives on Q8, 192 by 4 on Z2xQ8 (12
        and 48 when the suite kept a verdict per distinct conjugate): the
        homomorphism half of a repeated conjugate is a held key in ``homs``."""
        calls = count_calls(monkeypatch, automorphisms, "check_automorphism")
        assert _SUITES["Lemma 3.9"](instance(token, "chain")) == (True, None)
        assert calls == [pairs]
