"""Graded conjugation maps, their group, and the two isomorphism checks."""

from fractions import Fraction as F

import pytest

from fuzzaut import induced
from fuzzaut.errors import FuzzautError, clear_derived
from fuzzaut.grades import rank_grades
from fuzzaut.groups import (
    builtin_group,
    center,
    center_quotient,
    conjugations,
    first_non_multiplicative,
    is_group_isomorphism,
    opposite_group,
)
from fuzzaut.harness import DEFAULT_GROUPS
from fuzzaut.homs import is_fuzzy_homomorphism, lift_hom
from fuzzaut.maps import (
    FuzzyMap,
    MultipleUnitEntries,
    compose_maps,
    crisp_map,
    indexed_map,
    inverse_map,
    is_one_one,
    is_onto,
    make_fuzzy_map,
    pointwise_equal,
)
from fuzzaut.subsets import (
    MuNotNormal,
    MuNotPointed,
    chain_strategy,
    class_strategy,
    flat_mu,
    fuzzy_subset,
)
from fuzzaut.induced import (
    LawViolation,
    MuMismatch,
    build_inn_group,
    check_identity_label,
    check_inverse_labels,
    check_label_products,
    check_theorem_4_1,
    identity_induced,
    induced_family_raw,
    induced_indices,
    induced_map,
    induced_skeletons,
    make_induced,
    theta,
    zeta,
)

Z4 = builtin_group("Z4")
S3 = builtin_group("S3")
Q8 = builtin_group("Q8")


class TestMakeInduced:
    def test_identity_label_gives_graded_identity(self):
        mu = chain_strategy(Z4)
        f = make_induced(Z4.identity, mu)
        expected = [
            [mu.grades[Z4.table[Z4.inverses[x]][y]] for y in Z4.elements] for x in Z4.elements
        ]
        assert [list(r) for r in f.grades] == expected

    def test_unit_entries_trace_conjugation(self):
        mu = class_strategy(S3)
        for g in S3.elements:
            f = make_induced(g, mu)
            for x in S3.elements:
                assert f.grades[x][conjugations(S3)[g][x]] == 1

    def test_q8_matrix_cell_by_cell(self):
        mu = class_strategy(Q8)
        g = 2  # the element i
        f = make_induced(g, mu)
        t, inv = Q8.table, Q8.inverses
        for x in Q8.elements:
            for y in Q8.elements:
                assert f.grades[x][y] == mu.grades[t[inv[x]][t[t[g][y]][inv[g]]]]

    def test_rejects_non_normal_mu(self):
        bad = fuzzy_subset(S3, ["1", "1/2", "1/4", "1/4", "1/4", "1/4"])
        with pytest.raises(MuNotNormal):
            make_induced(1, bad)

    def test_rejects_unpointed_mu(self):
        with pytest.raises(MuNotPointed):
            make_induced(0, flat_mu(builtin_group("Z2")))


def certified(mu, labels):
    """The certified maps of ``labels``, as the dict family the checkers take."""
    return {g: make_induced(g, mu) for g in labels}


class TestLabelProducts:
    """Lemma 4.3 on certified maps: f_g1 . f_g2 is f_(g2 g1), cell by cell."""

    def test_identity_labels(self):
        mu = chain_strategy(S3)
        e = S3.identity
        assert S3.table[e][e] == e
        assert check_label_products(S3, certified(mu, (e,)), [(e, e)]) == (True, None)

    def test_s3_label_product(self):
        mu = class_strategy(S3)
        label = S3.table[3][1]
        family = certified(mu, (1, 3, label))
        assert check_label_products(S3, family, [(1, 3)]) == (True, None)
        assert pointwise_equal(family[label], compose_maps(family[1], family[3]))

    def test_inverse_labels_compose_to_identity_matrix(self):
        mu = class_strategy(Q8)
        minus_i = Q8.inverses[2]
        family = certified(mu, (2, minus_i, Q8.identity))
        assert check_label_products(Q8, family, [(2, minus_i)]) == (True, None)
        assert pointwise_equal(compose_maps(family[2], family[minus_i]), identity_induced(mu))


@pytest.mark.parametrize("token, other", [("S3", "Z6"), ("Z6", "S3"), ("S3", "Z4")])
def test_mu_over_another_group(token, other):
    group, mu = builtin_group(token), class_strategy(builtin_group(other))
    for check in (build_inn_group, check_theorem_4_1, zeta, theta):
        with pytest.raises(MuMismatch):
            check(group, mu)


class TestIdentityInduced:
    def test_diagonal_units(self):
        mu = class_strategy(S3)
        ident = identity_induced(mu)
        assert all(ident.grades[x][x] == 1 for x in S3.elements)

    def test_z4_sample_value(self):
        mu = chain_strategy(Z4)
        ident = identity_induced(mu)
        assert ident.grades[1][3] == F(1, 2)  # mu(3 - 1) = mu(2)

    def test_two_sided_identity_pointwise(self):
        mu = class_strategy(S3)
        ident = identity_induced(mu)
        for g in S3.elements:
            f = make_induced(g, mu)
            assert pointwise_equal(compose_maps(f, ident), f)
            assert pointwise_equal(compose_maps(ident, f), f)


class TestInverseLabels:
    """Lemma 4.6 on certified maps: f_g and f_(g^-1) compose to f_e both ways."""

    def test_identity_is_self_inverse(self):
        mu = chain_strategy(S3)
        e = S3.identity
        assert S3.inverses[e] == e
        assert check_inverse_labels(S3, certified(mu, (e,)), (e,)) == (True, None)

    def test_q8_i_inverts_to_minus_i(self):
        mu = class_strategy(Q8)
        assert Q8.inverses[2] == 3
        family = certified(mu, (2, 3, Q8.identity))
        assert check_inverse_labels(Q8, family, (2,)) == (True, None)

    def test_transpose_is_equivalent_to_inverse_label(self):
        mu = class_strategy(Q8)
        for g in Q8.elements:
            a = make_induced(g, mu)
            b = make_induced(Q8.inverses[g], mu)
            assert inverse_map(a).images == b.images
            # stronger matrix agreement holds on these class-constant inputs,
            # recorded as an observation rather than a law
            assert pointwise_equal(inverse_map(a), b)


class TestInnGroup:
    def test_abelian_collapses_to_one_class(self):
        for token in ("Z1", "Z4", "Z6", "V4"):
            group = builtin_group(token)
            inn = build_inn_group(group, chain_strategy(group))
            assert len(inn.classes) == 1

    def test_s3_has_six_classes(self):
        inn = build_inn_group(S3, class_strategy(S3))
        assert len(inn.classes) == 6
        assert inn.table.order == 6

    def test_q8_classes_form_klein_four(self):
        inn = build_inn_group(Q8, class_strategy(Q8))
        assert len(inn.classes) == 4
        assert inn.classes == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert all(inn.table.table[a][a] == inn.table.identity for a in inn.table.elements)

    @pytest.mark.parametrize("name", DEFAULT_GROUPS + ("S4", "D8"))
    @pytest.mark.parametrize("strategy", [chain_strategy, class_strategy])
    def test_classes_are_the_family_grouped_by_skeleton(self, name, strategy):
        """build_inn_group reads only the skeletons; grouping the built
        family's labels by their maps' images gives the same classes."""
        group = builtin_group(name)
        mu = strategy(group)
        by_skeleton = {}
        for g, fmap in enumerate(induced_family_raw(group, mu)):
            by_skeleton.setdefault(fmap.images, []).append(g)
        assert build_inn_group(group, mu).classes == tuple(map(tuple, by_skeleton.values()))
        assert induced_skeletons(group, mu) == [induced_map(mu, g).images for g in group.elements]

    def test_class_count_times_center_is_order(self):
        for token in ("Z8", "S3", "D4", "Q8"):
            group = builtin_group(token)
            mu = chain_strategy(group)
            inn = build_inn_group(group, mu)
            assert len(inn.classes) * len(center(group)) == group.order
            assert check_theorem_4_1(group, mu) == (True, None)

    def test_a_failed_count_is_a_witness_not_an_error(self, monkeypatch):
        """Theorem 4.1's count is its checker's verdict; ``build_inn_group`` only builds."""
        mu = class_strategy(Q8)
        monkeypatch.setattr(induced, "center", lambda group: frozenset({group.identity}))
        assert len(build_inn_group(Q8, mu).classes) == 4
        assert check_theorem_4_1(Q8, mu) == (
            False, "4 classes with a center of size 1 in a group of order 8"
        )


def zeta_images(group, inn):
    """g -> class(g^-1), read off the class partition: the test's own zeta."""
    return [inn.class_of[group.inverses[g]] for g in group.elements]


class TestZeta:
    """zeta's verdict against its facts, computed here from ``inn.class_of`` and ``center``."""

    def test_identity_maps_to_identity_class(self):
        mu = class_strategy(S3)
        inn = build_inn_group(S3, mu)
        assert zeta_images(S3, inn)[S3.identity] == inn.class_of[S3.identity]
        assert zeta(S3, mu) == (True, None)

    def test_q8_kernel_is_center(self):
        mu = class_strategy(Q8)
        images = zeta_images(Q8, build_inn_group(Q8, mu))
        kernel = {g for g in Q8.elements if images[g] == images[Q8.identity]}
        assert sorted(kernel) == [0, 1] and kernel == center(Q8)
        assert zeta(Q8, mu) == (True, None)

    def test_the_witness_prints_the_kernel_sorted(self, monkeypatch):
        d8 = builtin_group("D8")
        monkeypatch.setattr(induced, "center", lambda group: frozenset({group.identity}))
        assert zeta(d8, class_strategy(d8)) == (False, "kernel (0, 8) is not the center")

    @pytest.mark.parametrize("token", ["Z1", "Z6", "V4", "S3", "D4", "Q8"])
    def test_quotient_isomorphism(self, token):
        group = builtin_group(token)
        mu = chain_strategy(group)
        inn = build_inn_group(group, mu)
        images = zeta_images(group, inn)
        assert first_non_multiplicative(group, inn.table, images) is None
        assert set(images) == set(inn.table.elements)
        quotient, coset_map = center_quotient(group)
        iso = [None] * quotient.order
        for x in group.elements:
            assert iso[coset_map[x]] in (None, images[x])
            iso[coset_map[x]] = images[x]
        assert is_group_isomorphism(quotient, inn.table, iso)
        assert zeta(group, mu) == (True, None)


def evaluation_map(group, mu):
    """theta's map, built here from its cells mu(a^-1 * b^-1) over the opposite group."""
    t, inv = group.table, group.inverses
    rows = [[mu.grades[t[inv[a]][inv[b]]] for b in group.elements] for a in group.elements]
    return make_fuzzy_map(group, opposite_group(group), rows)


class TestTheta:
    """theta's verdict against its facts, read off the map built here."""

    def test_images_are_inverse_labels(self):
        mu = class_strategy(S3)
        fmap = evaluation_map(S3, mu)
        assert all(fmap.images[a] == S3.inverses[a] for a in S3.elements)
        assert theta(S3, mu) == (True, None)

    def test_z4_sample_value(self):
        mu = chain_strategy(Z4)
        assert evaluation_map(Z4, mu).grades[1][1] == F(1, 2)  # mu((-1) + (-1)) = mu(2)
        assert theta(Z4, mu) == (True, None)

    def test_kernel_is_trivial_and_map_is_bijective(self):
        for token in ("Z4", "S3", "Q8"):
            group = builtin_group(token)
            mu = class_strategy(group)
            fmap = evaluation_map(group, mu)
            labels = opposite_group(group)
            kernel = [a for a in group.elements if fmap.images[a] == labels.identity]
            assert kernel == [group.identity]
            assert is_one_one(fmap) and is_onto(fmap)
            assert theta(group, mu) == (True, None)

    def test_the_witness_prints_the_kernel_sorted(self, monkeypatch):
        """A map that sends every element to the identity label fails every fact
        but the sup condition, and names its whole kernel in order."""
        d8 = builtin_group("D8")
        monkeypatch.setattr(induced, "indexed_map", lambda domain, codomain, encoding, rows:
                            crisp_map(domain, codomain, (codomain.identity,) * domain.order))
        kernel = tuple(range(16))
        assert theta(d8, class_strategy(d8)) == (False, (
            f"fuzzy image of a is not the label of a^-1; kernel {kernel} is not trivial; "
            "not one-one; not onto"
        ))

    def test_sup_condition_under_label_composition(self):
        for token in ("Z4", "S3", "Q8"):
            group = builtin_group(token)
            mu = chain_strategy(group)
            assert is_fuzzy_homomorphism(evaluation_map(group, mu)).verdict
            assert theta(group, mu) == (True, None)

    def test_label_group_reverses_products(self):
        labels = evaluation_map(S3, class_strategy(S3)).codomain
        assert all(
            labels.table[a][b] == S3.table[b][a]
            for a in S3.elements
            for b in S3.elements
        )


class TestRawFamily:
    def test_raw_matches_certified(self):
        mu = class_strategy(S3)
        family = induced_family_raw(S3, mu)
        for g in S3.elements:
            assert family[g].grades == make_induced(g, mu).grades

    def test_raw_builder_needs_no_valid_mu(self):
        # the raw map builder is the ablation entry point: a flat mu gets as
        # far as the unit-entry rule of the matrix
        with pytest.raises(MultipleUnitEntries, match=r"row 0 has grade-1 entries at \[0, 1\]"):
            induced_map(flat_mu(builtin_group("Z2")), 0)


CERTIFIED_GROUPS = DEFAULT_GROUPS + ("S4", "D8", "direct_product(Z2,Q8)")


@pytest.mark.parametrize("name", CERTIFIED_GROUPS)
@pytest.mark.parametrize("strategy", [chain_strategy, class_strategy])
class TestCertifiedMaps:
    """``make_induced`` and ``identity_induced`` return the family's own maps."""

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        clear_derived()
        yield
        clear_derived()

    def test_identity_induced_is_f_e(self, name, strategy):
        group = builtin_group(name)
        mu = strategy(group)
        ident = identity_induced(mu)
        assert pointwise_equal(ident, mu.f_e)
        assert pointwise_equal(ident, induced_map(mu, group.identity))

    def test_make_induced_is_the_family_member(self, name, strategy):
        group = builtin_group(name)
        mu = strategy(group)
        family = induced_family_raw(group, mu)
        for g in group.elements:
            assert pointwise_equal(make_induced(g, mu), family[g]), g

    def test_identity_induced_raises_the_seeded_witness(self, monkeypatch, name, strategy):
        monkeypatch.setattr(induced, "check_identity_label", lambda *args: (False, "seeded"))
        with pytest.raises(LawViolation, match="seeded"):
            identity_induced(strategy(builtin_group(name)))


FAMILY_GROUPS = (
    "Z1", "Z2", "Z3", "Z4", "Z6", "Z8", "V4", "S3", "D4", "Q8", "D6", "S4",
    "direct_product(Z2,Q8)", "direct_product(D4,Z4)",
)


def unnormal_mu(group):
    """Pointed, but graded 1/(x+1) off the identity, so normal only by accident."""
    return fuzzy_subset(group, (1 if x == group.identity else F(1, x + 1) for x in group.elements))


class TestFamilyMatchesInducedMap:
    """induced_family_raw permutes f_e's columns; induced_map builds each f_g on its own."""

    def assert_family_is_oracle(self, group, mu):
        family = induced_family_raw(group, mu)
        assert len(family) == group.order
        for g in group.elements:
            oracle = induced_map(mu, g)
            assert family[g].grades == oracle.grades, g
            assert family[g].images == oracle.images, g
            assert family[g].encoding == oracle.encoding, g
            assert family[g] == oracle

    @pytest.mark.parametrize("name", FAMILY_GROUPS)
    @pytest.mark.parametrize("strategy", [chain_strategy, class_strategy])
    def test_valid_mu(self, name, strategy):
        group = builtin_group(name)
        self.assert_family_is_oracle(group, strategy(group))

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "S4"])
    def test_any_pointed_mu(self, name):
        group = builtin_group(name)
        self.assert_family_is_oracle(group, unnormal_mu(group))

    def test_mu_with_its_unit_off_the_identity(self):
        # grade 1 only at -1: every f_g is still a map, with a shifted skeleton
        self.assert_family_is_oracle(Q8, fuzzy_subset(Q8, (F(1, 2), 1, 0, 0, 0, 0, 0, 0)))

    @pytest.mark.parametrize(
        "name, grades",
        [
            ("Z2", (1, 1)),
            ("Z4", (1, F(1, 2), 1, F(1, 2))),
            ("S3", (1, F(1, 2), F(1, 2), 1, 1, F(1, 2))),
            ("S3", (F(1, 2),) * 6),
            ("Q8", (0, 1, 1, 0, 0, 0, 0, 0)),
        ],
    )
    def test_non_pointed_mu_raises_as_induced_map(self, name, grades):
        group = builtin_group(name)
        mu = fuzzy_subset(group, grades)
        with pytest.raises(FuzzautError) as oracle:
            induced_map(mu, 0)
        with pytest.raises(FuzzautError) as raised:
            induced_family_raw(group, mu)
        assert type(raised.value) is type(oracle.value)
        assert str(raised.value) == str(oracle.value)


    @pytest.mark.parametrize("name", ["Z2", "Z4", "S3", "Q8", "S4"])
    @pytest.mark.parametrize("make_mu", [
        flat_mu,
        lambda group: flat_mu(group, F(1, 2)),
        lambda group: fuzzy_subset(
            group, (1 if x == group.order - 1 else F(1, 2) for x in group.elements)
        ),
        lambda group: fuzzy_subset(
            group, (1 if x in (group.identity, group.order - 1) else 0 for x in group.elements)
        ),
    ], ids=["flat", "flat-half", "unit-off-the-identity", "two-units"])
    def test_invalid_mu_raises_as_induced_map_on_the_first_failing_label(self, name, make_mu):
        """f_e's scan fails or finds one unit per row; either way the family
        fails on the first label whose ``induced_map`` fails, with its error,
        or on none."""
        group = builtin_group(name)
        mu = make_mu(group)
        expected = None
        for g in group.elements:
            try:
                induced_map(mu, g)
            except FuzzautError as exc:
                expected = exc
                break
        if expected is None:
            self.assert_family_is_oracle(group, mu)
            return
        with pytest.raises(FuzzautError) as raised:
            induced_family_raw(group, mu)
        assert (type(raised.value), str(raised.value)) == (type(expected), str(expected))


@pytest.mark.parametrize("name", DEFAULT_GROUPS + ("S4", "D8", "D6", "direct_product(Z2,Q8)"))
@pytest.mark.parametrize("strategy", [chain_strategy, class_strategy])
def test_family_is_the_lift_of_conjugation(name, strategy):
    """For a normal mu, mu(x^-1 g y g^-1) = mu((g^-1 x g)^-1 y): f_g is the lift of
    x -> g^-1 x g, so the harness takes its section 3 samples from the lifts alone."""
    group = builtin_group(name)
    mu = strategy(group)
    for g, fmap in enumerate(induced_family_raw(group, mu)):
        lift = lift_hom(conjugations(group)[g], mu, group)
        assert (fmap.images, fmap.encoding) == (lift.images, lift.encoding), g


def regraded(fmap, scale):
    """The same rank rows over another value list: each grade below 1 times ``scale``."""
    rows = tuple(tuple(v if v == 1 else v * scale for v in row) for row in fmap.grades)
    return FuzzyMap(fmap.domain, fmap.codomain, rows, fmap.images)


def widened(mu, g):
    """f_g with the same grades over a longer value list, so with other ranks."""
    vec = mu.grades + (F(1, 3),)
    return indexed_map(mu.group, mu.group, rank_grades(vec), induced_indices(mu.group, g))


class TestExactLawsOnRanks:
    """Lemmas 4.3, 4.5 and 4.6 compare rank rows only between equal value lists."""

    def setup_method(self):
        self.mu = chain_strategy(S3)
        self.family = list(induced_family_raw(S3, self.mu))
        self.label = S3.table[3][1]
        assert self.label != S3.identity and F(1, 3) not in self.mu.grades

    def test_identity_label_sees_other_values(self):
        e = S3.identity
        self.family[e] = regraded(self.family[e], F(1, 2))
        assert self.family[e].encoding[1] == induced_family_raw(S3, self.mu)[e].encoding[1]
        ok, witness = check_identity_label(self.mu, self.family, S3.elements)
        assert (ok, witness) == (False, "identity-labeled matrix is not mu(x^-1 y)")
        ok, witness = check_inverse_labels(S3, self.family, (1,))
        assert not ok and "is not the identity matrix" in witness

    def test_identity_label_over_a_wider_value_list(self):
        e = S3.identity
        self.family[e] = widened(self.mu, e)
        assert self.family[e].encoding[0] != self.mu.encoding[0]
        assert check_identity_label(self.mu, self.family, S3.elements) == (True, None)
        assert check_inverse_labels(S3, self.family, S3.elements) == (True, None)

    def test_label_products_see_other_values(self):
        self.family[self.label] = regraded(self.family[self.label], F(1, 2))
        ok, witness = check_label_products(S3, self.family, [(1, 3)])
        assert not ok and witness.startswith("labels (1, 3) at cell (")

    def test_label_products_over_a_wider_value_list(self):
        self.family[self.label] = widened(self.mu, self.label)
        assert check_label_products(S3, self.family, [(1, 3)]) == (True, None)
