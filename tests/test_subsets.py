"""Membership functions: predicates, level sets, generators, strategies."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fuzzaut.grades import GradeError, format_grade, grade, parse_grade, rank_grades
from fuzzaut.groups import (
    GroupError,
    all_subgroups,
    builtin_group,
    derived_series,
    is_subgroup,
    normal_subgroups,
)
from fuzzaut.harness import DEFAULT_GROUPS
from fuzzaut.io import load_group, save
from fuzzaut.maps import make_fuzzy_map
from fuzzaut.subsets import (
    FuzzySubset,
    GradesNotDecreasing,
    MuNotNormal,
    MuNotPointed,
    NotNested,
    NotSubgroup,
    chain_strategy,
    class_strategy,
    flat_mu,
    fuzzy_subset,
    gen_mu_chain,
    is_class_constant,
    is_fuzzy_subgroup,
    is_normal_fuzzy_subgroup,
    is_pointed,
    require_valid_mu,
)

GRADE_POOL = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]


def level_set(mu, threshold) -> tuple[int, ...]:
    """The elements graded at least ``threshold``, in order."""
    t = F(threshold)
    return tuple(x for x in mu.group.elements if mu.grades[x] >= t)


def level_sets_are_subgroups(mu):
    """Independent route to the subgroup predicate via attained level sets."""
    return all(
        is_subgroup(mu.group, level_set(mu, t)) for t in set(mu.grades)
    )


class TestGrades:
    def test_parse_and_format(self):
        assert parse_grade("1/2") == F(1, 2)
        assert parse_grade("1") == F(1)
        assert format_grade(F(3, 4)) == "3/4"
        assert format_grade(F(0)) == "0"

    @pytest.mark.parametrize("text", ["3/2", "-1/2", "x", "1/0"])
    def test_rejects_bad_values(self, text):
        with pytest.raises(GradeError):
            parse_grade(text)

    @pytest.fixture
    def digit_limit(self):
        """Python's default limit on the digits of an int that ``str`` converts."""
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield 4300
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("value", [
        "1e-5000",
        "-1e-5000",
        "1e-4400",
        "0." + "0" * 4999 + "1",
        "1/1" + "0" * 5000,
        "1" + "0" * 5000 + "e-5000",
        10 ** 5000,
        -(10 ** 5000),
    ], ids=["exp", "negative-exp", "exp-past-limit", "decimal", "fraction", "one-spelled-long",
            "int", "negative-int"])
    def test_rejects_values_it_cannot_print(self, value, digit_limit):
        """A value whose digits pass the limit is refused as a grade, with an
        echo cut short enough for one error line."""
        with pytest.raises(GradeError, match=rf"\({digit_limit} digits\)") as err:
            grade(value)
        assert len(str(err.value)) < 300

    @pytest.mark.parametrize("build", [
        lambda z2, g: fuzzy_subset(z2, [g, 1]),
        lambda z2, g: make_fuzzy_map(z2, z2, [[1, g], [0, 1]]),
    ], ids=["fuzzy_subset", "make_fuzzy_map"])
    def test_rejects_a_fraction_it_cannot_print(self, build, digit_limit):
        """A ``Fraction`` passed in is held to the digit limit as a parsed
        value is, and named by the bit lengths of its terms, as its ``repr``
        does not print either."""
        with pytest.raises(GradeError, match=rf"^cannot interpret a Fraction of 1/16610 bits as a "
                                             rf"rational grade: .*\({digit_limit} digits\)"):
            build(builtin_group("Z2"), F(1, 10 ** 5000))

    def test_accepts_a_grade_inside_the_digit_limit(self, digit_limit):
        g = grade("1e-4200")
        assert g == F(1, 10 ** 4200) and len(format_grade(g)) == 4203


class TestPredicates:
    def test_constant_one_is_subgroup(self):
        assert is_fuzzy_subgroup(flat_mu(builtin_group("S3")))[0]

    def test_z4_chain_vector(self):
        mu = fuzzy_subset(builtin_group("Z4"), ["1", "1/4", "1/2", "1/4"])
        ok, witness = is_fuzzy_subgroup(mu)
        assert ok and witness is None

    def test_z4_bad_vector_witness(self):
        mu = fuzzy_subset(builtin_group("Z4"), ["1", "1/2", "1/4", "1/2"])
        ok, witness = is_fuzzy_subgroup(mu)
        assert not ok
        assert witness == "mu(x*y) = 1/4 < 1/2 = mu(x)^mu(y) at (x, y) = (1, 1)"

    def test_any_subgroup_mu_on_abelian_is_normal(self):
        mu = chain_strategy(builtin_group("Z8"))
        assert is_normal_fuzzy_subgroup(mu)[0]

    def test_s3_class_constant_is_normal(self):
        s3 = builtin_group("S3")
        mu = fuzzy_subset(s3, ["1", "1/4", "1/4", "1/2", "1/2", "1/4"])
        assert is_normal_fuzzy_subgroup(mu)[0]

    def test_s3_unequal_transpositions_not_normal(self):
        s3 = builtin_group("S3")
        # transpositions are elements 1, 2, 5; give element 1 a lower grade
        mu = fuzzy_subset(s3, ["1", "1/4", "1/2", "1/2", "1/2", "1/2"])
        ok, witness = is_normal_fuzzy_subgroup(mu)
        assert not ok and witness is not None

    def test_pointedness(self):
        z2 = builtin_group("Z2")
        assert not is_pointed(flat_mu(z2))
        assert is_pointed(fuzzy_subset(z2, ["1", "1/2"]))
        assert not is_pointed(fuzzy_subset(z2, ["1/2", "1/4"]))

    def test_require_valid_mu(self):
        z2 = builtin_group("Z2")
        with pytest.raises(MuNotPointed):
            require_valid_mu(flat_mu(z2))
        s3 = builtin_group("S3")
        bad = fuzzy_subset(s3, ["1", "1/4", "1/2", "1/2", "1/2", "1/2"])
        with pytest.raises(MuNotNormal):
            require_valid_mu(bad)


def literal_subgroup_verdict(mu):
    """``is_fuzzy_subgroup`` as a scan over grades: the first failing (x, y) in
    row-major order, then the first failing x^-1, in the checker's words."""
    g, vec = mu.group, mu.grades
    for x in g.elements:
        for y in g.elements:
            low = min(vec[x], vec[y])
            if vec[g.table[x][y]] < low:
                return False, (f"mu(x*y) = {vec[g.table[x][y]]} < {low} = mu(x)^mu(y) "
                               f"at (x, y) = ({x}, {y})")
    for x in g.elements:
        if vec[g.inverses[x]] < vec[x]:
            return False, f"mu(x^-1) = {vec[g.inverses[x]]} < {vec[x]} = mu(x) at x = {x}"
    return True, None


def literal_symmetry_verdict(mu):
    """The first (x, y) in row-major order with mu(xy) != mu(yx)."""
    g, vec = mu.group, mu.grades
    for x in g.elements:
        for y in g.elements:
            xy, yx = g.table[x][y], g.table[y][x]
            if vec[xy] != vec[yx]:
                return False, (f"mu(x*y) = {vec[xy]} != {vec[yx]} = mu(y*x) "
                               f"at (x, y) = ({x}, {y})")
    return True, None


class TestWitnessText:
    @pytest.mark.parametrize("token", DEFAULT_GROUPS)
    def test_subgroup_witness_is_the_literal_first_failure(self, token):
        """Random grade vectors with mu(e) = 1: both checkers give the literal
        scan's verdict and witness text, byte for byte."""
        group = builtin_group(token)
        rng = random.Random(token)
        failures = 0
        for _ in range(40):
            grades = [rng.choice(GRADE_POOL) for _ in group.elements]
            grades[group.identity] = F(1)
            mu = fuzzy_subset(group, grades)
            expected = literal_subgroup_verdict(mu)
            assert is_fuzzy_subgroup(mu) == expected
            if expected[0]:
                expected = literal_symmetry_verdict(mu)
            assert is_normal_fuzzy_subgroup(mu) == expected
            failures += not expected[0]
        assert failures > 0 or group.order <= 2

    @pytest.mark.parametrize("token", ["S3", "D4", "D5", "D6", "S4"])
    def test_symmetry_witness_is_the_literal_first_failure(self, token):
        """mu graded 1 on a non-normal subgroup and 1/2 off it is a fuzzy
        subgroup that is not normal, with the literal scan's witness."""
        group = builtin_group(token)
        normal = set(normal_subgroups(group))
        others = [h for h in all_subgroups(group) if h not in normal]
        assert others
        for h in others:
            mu = fuzzy_subset(group, [F(1) if x in h else F(1, 2) for x in group.elements])
            assert is_fuzzy_subgroup(mu) == (True, None)
            expected = literal_symmetry_verdict(mu)
            assert not expected[0]
            assert is_normal_fuzzy_subgroup(mu) == expected


class TestLevelSets:
    def test_zero_threshold_gives_whole_group(self):
        mu = chain_strategy(builtin_group("Z4"))
        assert level_set(mu, 0) == (0, 1, 2, 3)

    def test_z4_chain_levels(self):
        mu = chain_strategy(builtin_group("Z4"))
        assert level_set(mu, "1/2") == (0, 2)
        assert level_set(mu, 1) == (0,)

    @given(
        vec=st.lists(st.sampled_from(GRADE_POOL), min_size=6, max_size=6).map(
            lambda v: [F(1)] + v[1:]
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_subgroup_predicate_agrees_with_level_set_oracle(self, vec):
        mu = fuzzy_subset(builtin_group("S3"), vec)
        assert is_fuzzy_subgroup(mu)[0] == level_sets_are_subgroups(mu)

    @given(vec=st.lists(st.sampled_from(GRADE_POOL), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_subgroup_mu_symmetry_and_peak(self, vec):
        mu = fuzzy_subset(builtin_group("S3"), vec)
        ok, _ = is_fuzzy_subgroup(mu)
        if ok:
            g = mu.group
            assert all(mu.grades[g.inverses[x]] == mu.grades[x] for x in g.elements)
            assert all(mu.grades[g.identity] >= mu.grades[x] for x in g.elements)

    @given(vec=st.lists(st.sampled_from(GRADE_POOL), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_normality_agrees_with_class_constancy(self, vec):
        mu = fuzzy_subset(builtin_group("S3"), vec)
        if is_fuzzy_subgroup(mu)[0]:
            assert is_normal_fuzzy_subgroup(mu)[0] == is_class_constant(mu)


class TestChainGenerator:
    def test_two_term_chain(self):
        z2 = builtin_group("Z2")
        mu = gen_mu_chain(z2, [[0], [0, 1]], ["1", "1/2"])
        assert mu.grades == (F(1), F(1, 2))

    def test_z4_chain_value(self):
        z4 = builtin_group("Z4")
        mu = gen_mu_chain(z4, [[0], [0, 2], [0, 1, 2, 3]], ["1", "1/2", "1/4"])
        assert [str(g) for g in mu.grades] == ["1", "1/4", "1/2", "1/4"]

    def test_s3_a3_chain_is_class_constant(self):
        s3 = builtin_group("S3")
        mu = gen_mu_chain(s3, [[0], [0, 3, 4], list(range(6))], ["1", "1/2", "1/4"])
        assert is_class_constant(mu)
        assert is_normal_fuzzy_subgroup(mu)[0]

    def test_level_sets_recover_chain(self):
        z4 = builtin_group("Z4")
        chain = [(0,), (0, 2), (0, 1, 2, 3)]
        grades = [F(1), F(1, 2), F(1, 4)]
        mu = gen_mu_chain(z4, chain, grades)
        for part, g in zip(chain, grades):
            assert level_set(mu, g) == part

    def test_chain_must_start_trivial(self):
        z4 = builtin_group("Z4")
        with pytest.raises(NotNested):
            gen_mu_chain(z4, [[0, 2], [0, 1, 2, 3]], ["1", "1/2"])

    def test_chain_must_nest(self):
        s3 = builtin_group("S3")
        with pytest.raises(NotNested):
            gen_mu_chain(s3, [[0], [0, 1], [0, 2], list(range(6))], ["1", "1/2", "1/4", "1/8"])

    def test_chain_terms_must_be_subgroups(self):
        z4 = builtin_group("Z4")
        with pytest.raises(NotSubgroup):
            gen_mu_chain(z4, [[0], [0, 1], [0, 1, 2, 3]], ["1", "1/2", "1/4"])

    def test_chain_terms_are_range_checked(self):
        z4 = builtin_group("Z4")
        with pytest.raises(GroupError, match=r"^element index 9 outside 0\.\.3$"):
            gen_mu_chain(z4, [[0], [0, 2, 9], range(4)], ["1", "1/2", "1/4"])

    def test_grades_must_decrease(self):
        z4 = builtin_group("Z4")
        with pytest.raises(GradesNotDecreasing):
            gen_mu_chain(z4, [[0], [0, 2], [0, 1, 2, 3]], ["1", "1/2", "1/2"])
        with pytest.raises(GradesNotDecreasing):
            gen_mu_chain(z4, [[0], [0, 2], [0, 1, 2, 3]], ["1/2", "1/4", "1/8"])


class TestClassConstantGrades:
    """Grades constant on S3's classes {e}, {1, 2, 5} (transpositions), {3, 4}
    (3-cycles), and on Q8's {0}, {1}, {2, 3}, {4, 5}, {6, 7}."""

    def test_uniform_half_is_valid(self):
        mu = fuzzy_subset(builtin_group("S3"), ["1", "1/2", "1/2", "1/2", "1/2", "1/2"])
        assert is_normal_fuzzy_subgroup(mu)[0] and is_pointed(mu)

    def test_s3_rejection_names_transposition_pair(self):
        # transpositions above the 3-cycles: two transpositions multiply to a 3-cycle
        mu = fuzzy_subset(builtin_group("S3"), ["1", "1/2", "1/2", "1/4", "1/4", "1/2"])
        ok, witness = is_fuzzy_subgroup(mu)
        assert not ok and "(1, 2)" in str(witness)

    def test_q8_class_grades(self):
        mu = fuzzy_subset(builtin_group("Q8"), ["1", "1/2"] + ["1/4"] * 6)
        assert is_normal_fuzzy_subgroup(mu)[0] and is_pointed(mu)


@pytest.mark.parametrize(
    "check, strategy, construction",
    [("is_pointed", "chain_strategy", "chain"), ("is_class_constant", "class_strategy", "class")],
)
def test_a_failing_self_check_raises_under_python_O(check, strategy, construction):
    """The generators certify their output by raising, so ``python -O`` keeps the checks."""
    code = (
        "import sys\n"
        "from fuzzaut import subsets\n"
        "from fuzzaut.groups import builtin_group\n"
        "assert sys.flags.optimize\n"
        f"subsets.{check} = lambda mu: False\n"
        f"subsets.{strategy}(builtin_group('S3'))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1].startswith(
        f"RuntimeError: {construction} construction produced an invalid FuzzySubset("
    )


class TestStrategies:
    def test_z4_chain_strategy(self):
        assert [str(g) for g in chain_strategy(builtin_group("Z4")).grades] == [
            "1", "1/4", "1/2", "1/4",
        ]

    def test_s3_class_strategy_follows_derived_series(self):
        # 3-cycles (elements 3, 4) sit one level deep, transpositions at the top
        assert [str(g) for g in class_strategy(builtin_group("S3")).grades] == [
            "1", "1/4", "1/4", "1/2", "1/2", "1/4",
        ]

    def test_q8_class_strategy(self):
        assert [str(g) for g in class_strategy(builtin_group("Q8")).grades] == [
            "1", "1/2", "1/4", "1/4", "1/4", "1/4", "1/4", "1/4",
        ]

    def test_trivial_group(self):
        z1 = builtin_group("Z1")
        assert chain_strategy(z1).grades == (F(1),)
        assert class_strategy(z1).grades == (F(1),)

    @pytest.mark.parametrize("token", ["Z1", "Z6", "Z8", "V4", "S3", "D4", "Q8", "Z16", "D8"])
    @pytest.mark.parametrize("strategy", [chain_strategy, class_strategy])
    def test_strategies_always_produce_valid_mu(self, token, strategy):
        mu = strategy(builtin_group(token))
        require_valid_mu(mu)

    @pytest.mark.parametrize(
        "token", list(DEFAULT_GROUPS) + ["S4", "D8", "D6", "direct_product(Z2,Q8)", "file:S4~"]
    )
    def test_class_strategy_grades_by_derived_depth(self, token, tmp_path):
        """mu(x) = 2^-(depth - index of the deepest derived term containing x),
        the per-class formula the class strategy once graded by, on builtins
        and on a file group whose identity is not 0."""
        if token.startswith("file:"):
            s4 = builtin_group("S4")
            shift = [(x + 1) % s4.order for x in s4.elements]
            table = [[0] * s4.order for _ in s4.elements]
            for a in s4.elements:
                for b in s4.elements:
                    table[shift[a]][shift[b]] = shift[s4.table[a][b]]
            save(tmp_path / "g.json", {"name": "S4~", "order": s4.order, "table": table})
            group = load_group(tmp_path / "g.json")
            assert group.identity != 0
        else:
            group = builtin_group(token)
        series = derived_series(group)
        depth = len(series) - 1
        expected = tuple(
            F(1, 2 ** (depth - max(k for k, term in enumerate(series) if x in term)))
            for x in group.elements
        )
        mu = class_strategy(group)
        assert mu.grades == expected
        require_valid_mu(mu)


ORACLE_GROUPS = [builtin_group(t) for t in ("Z1", "Z4", "V4", "S3", "D4", "Q8", "Z12", "S4")]


def fresh_verdict(mu):
    """require_valid_mu's verdict from the predicates, computed now: (error class, message)."""
    ok, witness = is_normal_fuzzy_subgroup(mu)
    if not ok:
        return MuNotNormal, str(witness)
    if not is_pointed(mu):
        return MuNotPointed, "grade 1 must be attained exactly at the identity"
    return None


def kept_verdict(mu):
    try:
        require_valid_mu(mu)
    except (MuNotNormal, MuNotPointed) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def membership_functions(draw):
    """Valid, non-normal, non-pointed and flat mus, and perturbed strategy mus."""
    group = draw(st.sampled_from(ORACLE_GROUPS))
    kind = draw(st.sampled_from(["chain", "class", "perturbed", "random", "flat"]))
    if kind == "flat":
        return flat_mu(group, draw(st.sampled_from(["1", "1/2"])))
    if kind == "random":
        n = group.order
        grades = draw(st.lists(st.sampled_from(GRADE_POOL), min_size=n, max_size=n))
        return fuzzy_subset(group, grades)
    base = (chain_strategy if kind == "chain" else class_strategy)(group)
    if kind != "perturbed":
        return base
    grades = list(base.grades)
    for x in draw(st.lists(st.sampled_from(group.elements), max_size=3)):
        grades[x] = draw(st.sampled_from(GRADE_POOL))
    return fuzzy_subset(group, grades)


class TestEncoding:
    @given(mu=membership_functions())
    @settings(max_examples=120, deadline=None)
    def test_encoding_is_the_ranked_grades(self, mu):
        assert mu.encoding == rank_grades(mu.grades)
        values, ranks = mu.encoding
        assert tuple(values[r] for r in ranks) == mu.grades

    def test_encoding_takes_no_part_in_equality(self):
        mu = chain_strategy(builtin_group("S3"))
        twin = FuzzySubset(mu.group, tuple(F(g) for g in mu.grades))
        assert twin == mu and hash(twin) == hash(mu)
        assert twin.encoding == mu.encoding and twin.encoding is not mu.encoding

    def test_encoding_is_not_a_constructor_argument(self):
        mu = chain_strategy(builtin_group("S3"))
        with pytest.raises(TypeError):
            FuzzySubset(mu.group, mu.grades, ((F(0),), (0,) * 6))
        require_valid_mu(mu)
        flat = FuzzySubset(mu.group, (F(1),) * 6)
        assert flat.encoding == rank_grades(flat.grades)
        with pytest.raises(MuNotPointed):
            require_valid_mu(flat)


class TestKeptVerdict:
    """require_valid_mu keeps its verdict per mu; the predicates, asked afresh, are the oracle."""

    @given(mu=membership_functions())
    @settings(max_examples=150, deadline=None)
    def test_matches_a_fresh_verdict_twice(self, mu):
        expected = fresh_verdict(mu)
        assert kept_verdict(mu) == expected
        assert kept_verdict(mu) == expected

    def test_rejection_raises_a_fresh_error_each_time(self):
        bad = flat_mu(builtin_group("Z2"))
        errors = []
        for _ in range(2):
            with pytest.raises(MuNotPointed) as info:
                require_valid_mu(bad)
            errors.append(info.value)
        assert errors[0] is not errors[1] and str(errors[0]) == str(errors[1])

    def test_kept_per_mu_not_per_group(self):
        s3 = builtin_group("S3")
        good, flat = class_strategy(s3), flat_mu(s3)
        not_normal = fuzzy_subset(s3, ["1", "1/4", "1/2", "1/2", "1/2", "1/2"])
        for _ in range(2):
            require_valid_mu(good)
            with pytest.raises(MuNotPointed):
                require_valid_mu(flat)
            with pytest.raises(MuNotNormal):
                require_valid_mu(not_normal)
            require_valid_mu(fuzzy_subset(s3, ["1", "1/4", "1/4", "1/2", "1/2", "1/4"]))
