"""Fuzzy maps: validation, sup composition, equivalence, inverses."""

import copy
import pickle
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fuzzaut import maps
from fuzzaut.grades import grade, rank_grades
from fuzzaut.groups import builtin_group, conjugations, crisp_automorphisms, opposite_group
from fuzzaut.homs import lift_hom
from fuzzaut.maps import (
    FuzzyMap,
    FuzzyRelation,
    MapError,
    MultipleUnitEntries,
    NoUnitEntry,
    NotBijective,
    ShapeMismatch,
    compose,
    compose_maps,
    crisp_map,
    identity_map,
    indexed_map,
    inverse_map,
    is_one_one,
    is_onto,
    make_fuzzy_map,
    pointwise_equal,
    ranked_map,
    relation_images,
)
from fuzzaut.subsets import chain_strategy, class_strategy, fuzzy_subset
from fuzzaut.induced import induced_family_raw, induced_indices

Z4 = builtin_group("Z4")
S3 = builtin_group("S3")


def relation(domain, codomain, rows):
    """The ``FuzzyRelation`` over ``rows``, each cell ``grade``d."""
    return FuzzyRelation(domain, codomain, tuple(tuple(map(grade, row)) for row in rows))


def identity_grades_for(mu):
    """Rows of mu(x^-1 y): the graded identity matrix."""
    g = mu.group
    return [
        [mu.grades[g.table[g.inverses[x]][y]] for y in g.elements] for x in g.elements
    ]


def compose_oracle(f, g):
    """Definition-level sup composition, cell by cell."""
    rows = []
    for z in g.domain.elements:
        row = []
        for y in f.codomain.elements:
            candidates = [f.grades[a][y] for a in f.domain.elements if g.grades[z][a] == 1]
            row.append(max(candidates) if candidates else F(0))
        rows.append(tuple(row))
    return tuple(rows)


class TestValidation:
    def test_crisp_identity_is_valid(self):
        f = identity_map(Z4)
        assert f.images == (0, 1, 2, 3)

    def test_two_units_in_a_row(self):
        rows = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        with pytest.raises(MultipleUnitEntries):
            make_fuzzy_map(Z4, Z4, rows)

    def test_no_unit_in_a_row(self):
        rows = [["1/2", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        with pytest.raises(NoUnitEntry):
            make_fuzzy_map(Z4, Z4, rows)

    def test_graded_identity_matrix_is_a_map(self):
        mu = chain_strategy(Z4)
        f = make_fuzzy_map(Z4, Z4, identity_grades_for(mu))
        assert f.images == (0, 1, 2, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            make_fuzzy_map(Z4, Z4, [[1, 0], [0, 1]])


class TestImages:
    def test_fuzzy_image_of_identity(self):
        f = identity_map(S3)
        assert all(f.images[x] == x for x in S3.elements)

    def test_induced_image_is_conjugation(self):
        mu = chain_strategy(S3)
        family = induced_family_raw(S3, mu)
        for g in S3.elements:
            f = family[g]
            assert f.images == conjugations(S3)[g]

    def test_skeleton(self):
        assert identity_map(Z4).images == (0, 1, 2, 3)


class TestCompose:
    def test_compose_with_identity_keeps_matrix(self):
        mu = chain_strategy(Z4)
        f = make_fuzzy_map(Z4, Z4, identity_grades_for(mu))
        assert compose(f, identity_map(Z4)).grades == f.grades
        # the other side reindexes the crisp identity's rows: equivalent, not equal
        assert compose_maps(identity_map(Z4), f).images == f.images

    def test_empty_sup_row_becomes_zero(self):
        rel = relation(Z4, Z4, [["1/2"] * 4, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        f = identity_map(Z4)
        out = compose(f, rel)
        assert out.grades[0] == (F(0),) * 4
        assert out.grades[1] == f.grades[0]

    def test_matches_definition_oracle_on_maps(self):
        mu = chain_strategy(S3)
        family = induced_family_raw(S3, mu)
        for f in family[:3]:
            for g in family[:3]:
                assert compose(f, g).grades == compose_oracle(f, g)

    @given(
        units=st.lists(st.integers(0, 3), min_size=6, max_size=6),
        cross=st.lists(st.integers(0, 5), min_size=4, max_size=4),
        extra=st.lists(st.sampled_from([F(0), F(1, 4), F(1, 2)]), min_size=24, max_size=24),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_definition_oracle_on_random_maps(self, units, cross, extra):
        # units and cross may repeat, so the maps need not be bijective
        def random_map(domain, codomain, images):
            m = codomain.order
            rows = [
                [F(1) if y == images[x] else extra[m * x + y] for y in range(m)]
                for x in domain.elements
            ]
            return make_fuzzy_map(domain, codomain, rows)

        f = random_map(Z4, Z4, units)
        g = make_fuzzy_map(Z4, Z4, f.grades[::-1])
        assert compose(f, g).grades == compose_oracle(f, g)
        into_s3, out_of_s3 = random_map(Z4, S3, cross), random_map(S3, Z4, units)
        for a, b in ((f, g), (out_of_s3, into_s3), (into_s3, out_of_s3)):
            fast, oracle = compose_maps(a, b), compose_oracle(a, b)
            assert fast.grades == oracle
            assert fast.images == relation_images(relation(b.domain, a.codomain, oracle))

    def test_row_lookup_identity(self):
        # composing after a map just reindexes rows through its skeleton
        mu = chain_strategy(S3)
        family = induced_family_raw(S3, mu)
        f, g = family[1], family[3]
        out = compose(f, g)
        for z in S3.elements:
            for y in S3.elements:
                assert out.grades[z][y] == f.grades[g.images[z]][y]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            compose(identity_map(Z4), identity_map(S3))
        with pytest.raises(ShapeMismatch):
            compose_maps(identity_map(Z4), identity_map(S3))

    def test_skeletons_compose(self):
        mu = chain_strategy(S3)
        family = induced_family_raw(S3, mu)
        for f in family:
            for g in family:
                composed = compose_maps(f, g)
                assert composed.images == tuple(f.images[g.images[z]] for z in S3.elements)


class TestPredicates:
    def test_identity_bijective(self):
        f = identity_map(Z4)
        assert is_one_one(f) and is_onto(f)

    def test_constant_map_neither(self):
        rows = [[1, 0, 0, 0]] * 4
        f = make_fuzzy_map(Z4, Z4, rows)
        assert not is_one_one(f) and not is_onto(f)

    def test_equiv_ignores_sub_unit_grades(self):
        mu = chain_strategy(Z4)
        graded = make_fuzzy_map(Z4, Z4, identity_grades_for(mu))
        assert graded.images == identity_map(Z4).images
        assert not pointwise_equal(graded, identity_map(Z4))

    def test_equiv_detects_different_units(self):
        f = crisp_map(Z4, Z4, (0, 1, 2, 3))
        g = crisp_map(Z4, Z4, (0, 1, 3, 2))
        assert f.images != g.images

    def test_pointwise_equal_shape_mismatch(self):
        with pytest.raises(ShapeMismatch, match="different domain/codomain pairs"):
            pointwise_equal(identity_map(Z4), identity_map(S3))

    def test_induced_maps_equal_across_center_cosets(self):
        q8 = builtin_group("Q8")
        mu = chain_strategy(q8)
        family = induced_family_raw(q8, mu)
        minus_one = 1  # the nontrivial central element
        for g in q8.elements:
            gz = q8.table[g][minus_one]
            assert family[g].images == family[gz].images
            assert pointwise_equal(family[g], family[gz])


class TestInverse:
    def test_inverse_of_identity(self):
        f = identity_map(Z4)
        assert inverse_map(f).grades == f.grades

    def test_double_transpose_is_exact(self):
        mu = chain_strategy(S3)
        family = induced_family_raw(S3, mu)
        for f in family:
            assert inverse_map(inverse_map(f)).grades == f.grades

    def test_rejects_non_bijective(self):
        rows = [[1, 0, 0, 0]] * 4
        with pytest.raises(NotBijective):
            inverse_map(make_fuzzy_map(Z4, Z4, rows))

    @pytest.mark.parametrize("pair", [("Z4", "Z4"), ("S3", "S3"), ("Q8", "Q8"), ("Z4", "V4")])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_validated_transpose(self, pair, data):
        domain, codomain = builtin_group(pair[0]), builtin_group(pair[1])
        n = domain.order
        images = data.draw(st.permutations(range(n)))
        extra = data.draw(
            st.lists(st.sampled_from([F(0), F(1, 4), F(1, 2)]), min_size=n * n, max_size=n * n)
        )
        rows = [[F(1) if y == images[x] else extra[n * x + y] for y in range(n)] for x in range(n)]
        f = make_fuzzy_map(domain, codomain, rows)
        transpose = [[f.grades[x][y] for x in range(n)] for y in range(n)]
        oracle = make_fuzzy_map(codomain, domain, transpose)
        inverse = inverse_map(f)
        assert (inverse.domain, inverse.codomain) == (codomain, domain)
        assert inverse.grades == oracle.grades
        assert inverse.images == oracle.images

    def test_two_sided_inverse_up_to_equiv(self):
        mu = chain_strategy(S3)
        family = induced_family_raw(S3, mu)
        ident = identity_map(S3)
        for f in family:
            g = inverse_map(f)
            assert compose_maps(g, f).images == ident.images
            assert compose_maps(f, g).images == ident.images


class TestAssociativity:
    def test_associative_up_to_equiv_exhaustive(self):
        mu = chain_strategy(S3)
        family = induced_family_raw(S3, mu)
        maps = {f.grades: f for f in family}.values()
        maps = list(maps) + [identity_map(S3)]
        for f in maps:
            for g in maps:
                fg = compose_maps(f, g)
                for h in maps:
                    left = compose_maps(fg, h)
                    right = compose_maps(f, compose_maps(g, h))
                    assert left.images == right.images


def assert_encoding_decodes(f):
    values, rank_rows = f.encoding
    assert all(a < b for a, b in zip(values, values[1:]))
    assert tuple(tuple(values[r] for r in row) for row in rank_rows) == f.grades


ENCODING_GROUPS = [builtin_group(t) for t in ("Z4", "V4", "S3", "Q8")]
ENCODING_PAIRS = [(a, b) for a in ENCODING_GROUPS for b in ENCODING_GROUPS]
GRADES = [F(0), F(1, 4), F(1, 3), F(1, 2), F(1)]


@st.composite
def graded_maps(draw, domain, codomain, bijective=False):
    """Random fuzzy maps domain -> codomain, bijective ones on request."""
    n, m = domain.order, codomain.order
    if bijective:
        images = draw(st.permutations(range(m)))
    else:
        images = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    low = st.sampled_from(GRADES[:-1])
    rows = [[F(1) if y == images[x] else draw(low) for y in range(m)] for x in range(n)]
    return make_fuzzy_map(domain, codomain, rows)


class TestEncoding:
    """Every constructor's integer encoding decodes to the map's grades."""

    @given(data=st.data(), pair=st.sampled_from(ENCODING_PAIRS))
    @settings(max_examples=60, deadline=None)
    def test_built_maps(self, data, pair):
        domain, codomain = pair
        f = data.draw(graded_maps(domain, codomain))
        g = data.draw(graded_maps(codomain, domain))
        assert_encoding_decodes(f)
        assert_encoding_decodes(compose_maps(f, g))
        assert_encoding_decodes(compose_maps(g, f))
        n = domain.order
        mapping = data.draw(st.lists(st.sampled_from(codomain.elements), min_size=n, max_size=n))
        assert_encoding_decodes(crisp_map(domain, codomain, mapping))
        assert_encoding_decodes(FuzzyMap(domain, codomain, f.grades, f.images))
        if n == codomain.order:
            b = data.draw(graded_maps(domain, codomain, bijective=True))
            assert_encoding_decodes(inverse_map(b))
            assert_encoding_decodes(compose_maps(inverse_map(b), f))

    @given(
        data=st.data(),
        token=st.sampled_from(["Z4", "S3", "D4", "Q8"]),
        strategy=st.sampled_from([chain_strategy, class_strategy]),
    )
    @settings(max_examples=40, deadline=None)
    def test_maps_built_from_mu(self, data, token, strategy):
        group = builtin_group(token)
        mu = strategy(group)
        sigma = data.draw(st.sampled_from(crisp_automorphisms(group)))
        lift = lift_hom(sigma, mu, group)
        family = induced_family_raw(group, mu)
        # the graded evaluation map of Theorem 4.3: cells mu(a^-1 * b^-1) over the opposite group
        t, inv = group.table, group.inverses
        evaluation = indexed_map(group, opposite_group(group), mu.encoding,
                                 [[t[inv[a]][inv[b]] for b in group.elements] for a in group.elements])
        for f in [lift, evaluation, inverse_map(lift)] + family:
            assert_encoding_decodes(f)
        g = data.draw(st.sampled_from(family))
        assert_encoding_decodes(compose_maps(lift, g))
        # the encoding is mu's: every sample from one mu shares its value list
        assert lift.encoding[0] == g.encoding[0] == tuple(sorted(set(mu.grades)))


def ranked(vec):
    """A raw grade vector, validated and ranked: what ``indexed_map`` takes."""
    return rank_grades([grade(v) for v in vec])


class TestIndexedMap:
    """``indexed_map`` builds what ``make_fuzzy_map`` builds from the same matrix."""

    @given(data=st.data(), pair=st.sampled_from([(Z4, Z4), (Z4, S3), (S3, Z4)]))
    @settings(max_examples=100, deadline=None)
    def test_matches_make_fuzzy_map(self, data, pair):
        domain, codomain = pair
        vec = data.draw(st.lists(st.sampled_from(GRADES), min_size=1, max_size=6))
        index = st.integers(0, len(vec) - 1)
        index_rows = [
            [data.draw(index) for _ in codomain.elements] for _ in domain.elements
        ]
        matrix = [[vec[i] for i in row] for row in index_rows]
        encoding = ranked(vec)
        try:
            oracle = make_fuzzy_map(domain, codomain, matrix)
        except (NoUnitEntry, MultipleUnitEntries) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                indexed_map(domain, codomain, encoding, index_rows)
            return
        f = indexed_map(domain, codomain, encoding, index_rows)
        assert (f.grades, f.images) == (oracle.grades, oracle.images)
        assert_encoding_decodes(f)
        # the vector's value list is kept, even where some entry is never indexed
        assert f.encoding[0] is encoding[0]
        assert pointwise_equal(f, oracle)

    def test_keeps_the_vector_grades(self):
        mu = chain_strategy(S3)
        f = induced_family_raw(S3, mu)[1]
        assert {id(v) for row in f.grades for v in row} <= {id(v) for v in mu.grades}

    def test_errors(self):
        with pytest.raises(ShapeMismatch):
            indexed_map(Z4, Z4, ranked([F(1), F(0)]), [[0, 1, 1, 1]] * 3)
        with pytest.raises(NoUnitEntry):
            indexed_map(Z4, Z4, ranked([F(1, 2), F(0)]), [[0, 1, 1, 1]] * 4)
        with pytest.raises(MultipleUnitEntries):
            indexed_map(Z4, Z4, fuzzy_subset(Z4, [1, 1, 0, 0]).encoding, Z4.table)


class TestCrispEncoding:
    """``crisp_map`` writes its 0/1 encoding down; ranking its cells is the oracle."""

    @given(
        data=st.data(),
        pair=st.sampled_from(
            ENCODING_PAIRS + [(builtin_group("Z1"), g) for g in ENCODING_GROUPS]
            + [(g, builtin_group("Z1")) for g in ENCODING_GROUPS]
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_ranked_cells(self, data, pair):
        domain, codomain = pair
        n = domain.order
        mapping = data.draw(st.lists(st.sampled_from(codomain.elements), min_size=n, max_size=n))
        f = crisp_map(domain, codomain, mapping)
        assert f.encoding == maps._rank_cells(f.grades)
        indicator = [[int(y == c) for y in codomain.elements] for c in mapping]
        assert f == make_fuzzy_map(domain, codomain, indicator)

    @pytest.mark.parametrize("token", ["Z1", "Z2", "S3", "Q8"])
    def test_identity_map(self, token):
        group = builtin_group(token)
        f = identity_map(group)
        assert f.encoding == maps._rank_cells(f.grades)
        assert f.images == tuple(group.elements)


class TestPointwiseEqualOnRanks:
    """``pointwise_equal`` compares rank rows between equal value lists; grades are the oracle."""

    @given(data=st.data(), pair=st.sampled_from(ENCODING_PAIRS))
    @settings(max_examples=80, deadline=None)
    def test_matches_grade_equality(self, data, pair):
        domain, codomain = pair
        f = data.draw(graded_maps(domain, codomain))
        if data.draw(st.booleans()):
            g = f  # the same matrix, ranked against its own values
        else:
            g = data.draw(graded_maps(domain, codomain))
        assert pointwise_equal(f, g) == (f.grades == g.grades)
        assert pointwise_equal(g, f) == (f.grades == g.grades)

    def test_maps_with_different_value_lists(self):
        mu = chain_strategy(S3)
        f = induced_family_raw(S3, mu)[S3.identity]
        # the same matrix over a longer value list: ranks differ, grades agree
        widened = indexed_map(S3, S3, ranked(mu.grades + (F(1, 3),)), induced_indices(S3, 0))
        assert widened.encoding[0] != f.encoding[0] and widened.encoding[1] != f.encoding[1]
        assert pointwise_equal(f, widened) and pointwise_equal(widened, f)
        # equal rank rows over different values are different matrices
        halved = tuple(tuple(v / 2 if v < 1 else v for v in row) for row in f.grades)
        shifted = FuzzyMap(S3, S3, halved, f.images)
        assert shifted.encoding[1] == f.encoding[1] and shifted.encoding[0] != f.encoding[0]
        assert not pointwise_equal(f, shifted) and not pointwise_equal(shifted, f)

    def test_relations_compare_grades(self):
        f = identity_map(Z4)
        rel = relation(Z4, Z4, f.grades)
        assert pointwise_equal(f, rel) and pointwise_equal(rel, f)


Z1 = builtin_group("Z1")


# every grade p/q below 1 with q <= 8, sampled from a list: drawing them through
# st.fractions is several times slower
BELOW_ONE = sorted({F(p, q) for q in range(1, 9) for p in range(q)})


class TestMakeFuzzyMapOracle:
    """``make_fuzzy_map`` finds the unit entries on ranks; ``relation_images``
    over the ``Fraction`` cells is the oracle, for its images and its
    unit-entry errors; a ragged matrix raises ``ShapeMismatch``."""

    @given(
        data=st.data(),
        pair=st.sampled_from(ENCODING_PAIRS + [(Z1, Z4), (S3, Z1), (Z1, Z1)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_relation_images(self, data, pair):
        domain, codomain = pair
        below_one = st.sampled_from(BELOW_ONE)
        rows = []
        for _ in domain.elements:
            row = [data.draw(below_one) for _ in codomain.elements]
            units = data.draw(st.sampled_from((1, 1, 1, 1, 0, 2)))
            for y in data.draw(st.permutations(codomain.elements))[:units]:
                row[y] = F(1)
            rows.append(row)
        if data.draw(st.integers(0, 9)) == 0:
            rows[-1] = rows[-1][:-1]
            with pytest.raises(ShapeMismatch):
                make_fuzzy_map(domain, codomain, rows)
            return
        try:
            expected = relation_images(relation(domain, codomain, rows))
        except MapError as exc:
            with pytest.raises(MapError) as raised:
                make_fuzzy_map(domain, codomain, rows)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
            return
        f = make_fuzzy_map(domain, codomain, rows)
        assert f.images == expected
        assert f.grades == tuple(map(tuple, rows))
        assert_encoding_decodes(f)


CONSTRUCTORS = (
    "make_fuzzy_map", "indexed_map", "ranked_map", "compose_maps",
    "inverse_map", "crisp_map", "lift_hom", "induced_family_raw",
)


def one_map_per_constructor():
    """A fresh map from each constructor, by name; none has had its grades read."""
    mu = chain_strategy(S3)
    values, ranks = mu.encoding
    f = lift_hom(crisp_automorphisms(S3)[1], mu, S3)
    g = induced_family_raw(S3, mu)[1]
    identity_rows = induced_indices(S3, S3.identity)
    return {
        "make_fuzzy_map": make_fuzzy_map(S3, S3, identity_grades_for(mu)),
        "indexed_map": indexed_map(S3, S3, mu.encoding, induced_indices(S3, 2)),
        "ranked_map": ranked_map(
            S3, S3, values, tuple(tuple(map(ranks.__getitem__, row)) for row in identity_rows)
        ),
        "compose_maps": compose_maps(f, g),
        "inverse_map": inverse_map(g),
        "crisp_map": crisp_map(S3, Z4, (0, 2, 2, 1, 3, 0)),
        "lift_hom": lift_hom(crisp_automorphisms(S3)[2], mu, S3),
        "induced_family_raw": induced_family_raw(S3, mu)[2],
    }


class TestStoredCells:
    """A map stores its cells once, as rank rows; ``grades`` is derived on first read.

    ``TestCompose`` and ``TestInverse`` compare the derived grades of
    ``compose_maps`` and ``inverse_map`` with sup composition and the transpose.
    """

    @pytest.mark.parametrize("name", CONSTRUCTORS)
    def test_grades_derived_on_first_read(self, name):
        f = one_map_per_constructor()[name]
        assert "grades" not in vars(f)
        assert_encoding_decodes(f)
        assert vars(f)["grades"] is f.grades

    @pytest.mark.parametrize("name", CONSTRUCTORS)
    def test_instance_dict_is_that_of_init(self, name):
        """Each constructor skips ``FuzzyMap.__init__`` and fills the four slots
        itself, with the objects ``__init__`` stores; neither puts anything in
        the instance dictionary."""
        f = one_map_per_constructor()[name]
        built = FuzzyMap(f.domain, f.codomain, None, f.images, f.encoding)
        assert type(f) is FuzzyMap
        assert FuzzyMap.__slots__ == ("domain", "codomain", "images", "encoding")
        for name in FuzzyMap.__slots__:
            assert getattr(f, name) is getattr(built, name)
        assert vars(f) == vars(built) == {}

    @pytest.mark.parametrize("name", CONSTRUCTORS)
    def test_copies_and_pickles(self, name):
        f = one_map_per_constructor()[name]
        for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(twin) is FuzzyMap and twin == f
            assert (twin.images, twin.encoding) == (f.images, f.encoding)

    def test_compose_maps_reads_one_skeleton_getter_per_map(self):
        """The right operand's skeleton getter is built on its first composition
        and reused by every later one."""
        f, g = identity_map(S3), crisp_map(S3, S3, crisp_automorphisms(S3)[2])
        assert "skeleton_getter" not in vars(g)
        first = compose_maps(f, g)
        getter = vars(g)["skeleton_getter"]
        assert compose_maps(g, g).images == getter(g.images) and g.skeleton_getter is getter
        assert first.images == g.images

    def test_grades_or_encoding_not_both_nor_neither(self):
        f = identity_map(Z4)
        with pytest.raises(TypeError):
            FuzzyMap(Z4, Z4, f.grades, f.images, f.encoding)
        with pytest.raises(TypeError):
            FuzzyMap(Z4, Z4, None, f.images)

    def test_equality_is_grade_equality(self):
        mu = chain_strategy(S3)
        f = induced_family_raw(S3, mu)[S3.identity]
        # the same matrix over a longer value list
        widened = indexed_map(S3, S3, ranked(mu.grades + (F(1, 3),)), induced_indices(S3, 0))
        assert widened.encoding != f.encoding
        assert widened == f and hash(widened) == hash(f)
        assert FuzzyMap(S3, S3, f.grades, f.images) == f
        halved = tuple(tuple(v / 2 if v < 1 else v for v in row) for row in f.grades)
        assert FuzzyMap(S3, S3, halved, f.images) != f
