"""One implementation per law: the public API and the harness share each checker.

Each case seeds a defect in one shared checker, at every module that binds
it, and expects the harness row of its statement to fail and, where the
public API reaches it, the public caller to see it too: a checker built on
the seeded one returns its witness, and ``make_induced``, ``identity_induced``
and the ``normal-mu`` ablation, which call the checker, raise or fail.  A law
with a second, private copy in either place would let one of the two pass.

Two cases seed a defect in the associativity kernel, which ``make_group``
(and so Theorems 3.1 and 4.1) and Lemma 3.2 share, and two in the
predicates behind ``require_valid_mu``, whose verdict each mu keeps.  The
last cases seed a defect in map composition, below every checker, and
record which statements of the campaign catch it.  Before them, the
product checkers of Lemmas 3.7 and 4.4, which read one table of pair
composites, are compared with scans that compose every product: on the
table lookups and on the fallback, with wrong family members, and under a
composition defect that sends one pair to the wrong member.  The very last
cases add a hand-built map that the checkers reject to the samples of an
instance and pin the rows that fail, witnesses included, byte for byte.
"""

import re
import sys
from itertools import product

import pytest

from fuzzaut import automorphisms, groups, induced, maps, subsets
from fuzzaut.errors import clear_derived
from fuzzaut.groups import NotAssociative, builtin_group, crisp_automorphisms, make_group
from fuzzaut.harness import (
    _SUITES,
    DEFAULT_GROUPS,
    Campaign,
    _Group,
    _Instance,
    ablation,
    run_campaign,
)
from fuzzaut.induced import (
    LawViolation,
    check_inverse_labels,
    identity_induced,
    induced_family_raw,
    make_induced,
)
from fuzzaut.io import mu_to_json, save
from fuzzaut.homs import lift_hom
from fuzzaut.maps import FuzzyMap, compose_maps, crisp_map, inverse_map
from fuzzaut.subsets import MuNotNormal, MuNotPointed, class_strategy, require_valid_mu

S3 = builtin_group("S3")


def rebind(monkeypatch, module, name, fake):
    """Replace ``module.name`` by ``fake`` wherever fuzzaut binds it."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fuzzaut" or mod_name.startswith("fuzzaut."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, fake)


def seed_defect(monkeypatch, module, name, fake):
    """``rebind``, then drop the results that the test certified before the
    defect, which would hide it, among them the strategy mus, which keep
    their ``require_valid_mu`` verdict."""
    rebind(monkeypatch, module, name, fake)
    clear_derived()


def rejects(*args):
    return False, "seeded defect"


@pytest.fixture(autouse=True)
def cold_caches():
    """Certified results cached before the test would hide a seeded defect."""
    clear_derived()
    yield
    clear_derived()


def row_of(statement):
    campaign = Campaign(groups=("S3",), mu_sources=("class",), suites=(statement,))
    (row,) = run_campaign(campaign)
    return row


def inner(g):
    return induced_family_raw(S3, class_strategy(S3))[g]


def induced_map(g):
    return make_induced(g, class_strategy(S3))


def test_rows_pass_without_a_defect():
    for statement in ("Lemma 3.1", "Lemma 3.9", "Lemma 4.3", "Lemma 4.5", "Lemma 4.6"):
        assert row_of(statement).verdict


def test_is_inner_serves_lemma_3_9_and_its_checker(monkeypatch):
    f, f_g = inner(1), inner(3)
    conj = compose_maps(inverse_map(f), compose_maps(f_g, f))
    seed_defect(monkeypatch, automorphisms, "is_inner", lambda f: None)
    ok, witness = automorphisms.check_inner_conjugate(conj)
    assert not ok and "is not inner" in witness
    row = row_of("Lemma 3.9")
    assert not row.verdict and "is not inner" in row.witness


def test_label_product_checker_serves_lemma_4_3_and_ablation(monkeypatch):
    seed_defect(monkeypatch, induced, "check_label_products", rejects)
    row = row_of("Lemma 4.3")
    assert not row.verdict and row.witness == "seeded defect"
    seed_defect(monkeypatch, induced, "check_label_products", lambda *args: (True, None))
    (probe,) = ablation(Campaign(groups=("S3",)), "normal-mu")
    assert not probe.verdict  # the ablation reads its counterexample from the same checker


def test_identity_label_checker_serves_lemma_4_5_and_identity_induced(monkeypatch):
    seed_defect(monkeypatch, induced, "check_identity_label", rejects)
    with pytest.raises(LawViolation, match="seeded defect"):
        identity_induced(class_strategy(S3))
    row = row_of("Lemma 4.5")
    assert not row.verdict and row.witness == "seeded defect"


def test_inverse_label_checker_serves_lemma_4_6(monkeypatch):
    seed_defect(monkeypatch, induced, "check_inverse_labels", rejects)
    assert not row_of("Lemma 4.6").verdict


def test_transpose_checker_serves_lemmas_3_8_and_4_6(monkeypatch):
    family = induced_family_raw(S3, class_strategy(S3))
    seed_defect(monkeypatch, automorphisms, "check_inner_inverses", rejects)
    assert check_inverse_labels(S3, family, (1,)) == (False, "seeded defect")
    assert not row_of("Lemma 3.8").verdict
    assert not row_of("Lemma 4.6").verdict


def test_automorphism_checker_serves_lemmas_3_1_3_6_and_3_9(monkeypatch):
    conj = compose_maps(inverse_map(inner(1)), compose_maps(inner(3), inner(1)))
    seed_defect(monkeypatch, automorphisms, "check_automorphism", rejects)
    assert automorphisms.check_inner_conjugate(conj) == (False, "seeded defect")
    for statement in ("Lemma 3.1", "Lemma 3.6", "Lemma 3.9"):
        assert not row_of(statement).verdict


@pytest.mark.parametrize(
    "name, statement",
    [("check_induced_homomorphism", "Lemma 4.1"), ("check_induced_bijective", "Lemma 4.2")],
)
def test_induced_map_checkers_serve_make_induced(monkeypatch, name, statement):
    seed_defect(monkeypatch, induced, name, rejects)
    with pytest.raises(LawViolation, match="seeded defect"):
        induced_map(1)
    assert not row_of(statement).verdict


def test_class_preservation_serves_lemma_4_2_and_make_induced(monkeypatch):
    seed_defect(monkeypatch, automorphisms, "is_class_preserving", lambda f: False)
    with pytest.raises(LawViolation, match="not class preserving"):
        induced_map(1)
    row = row_of("Lemma 4.2")
    assert not row.verdict and "not class preserving" in row.witness


@pytest.mark.parametrize(
    "name, fake, error",
    [
        ("is_pointed", lambda mu: False, MuNotPointed),
        ("is_normal_fuzzy_subgroup", lambda mu: (False, "seeded defect"), MuNotNormal),
    ],
)
def test_validity_predicates_serve_require_valid_mu(monkeypatch, tmp_path, name, fake, error):
    """Neither the strategy mu of a campaign nor a mu read from a file keeps
    its passing verdict beyond the campaign, so the next one sees the defect
    with nothing cleared by hand, and refuses the mu before any suite runs.
    ``gen_mu_chain``, which builds the strategy mu, certifies pointedness
    itself: a seeded ``is_pointed`` fails that self-check first, with a
    ``RuntimeError``, which fails every row instead."""
    path = tmp_path / "mu.json"
    save(path, mu_to_json(class_strategy(S3)))
    by_file = Campaign(groups=("S3",), mu_sources=(f"file:{path}",), suites=("Lemma 4.1",))
    assert row_of("Lemma 4.3").verdict
    assert [r.verdict for r in run_campaign(by_file)] == [True]
    rebind(monkeypatch, subsets, name, fake)
    strategy_error = RuntimeError if name == "is_pointed" else error
    for statement in ("Lemma 4.1", "Lemma 4.3", "Theorem 4.3"):
        if strategy_error is RuntimeError:
            row = row_of(statement)
            assert not row.verdict
            assert row.witness.startswith("RuntimeError: chain construction produced an invalid")
        else:
            with pytest.raises(error):
                row_of(statement)
    with pytest.raises(error):
        run_campaign(by_file)
    with pytest.raises(strategy_error):
        require_valid_mu(class_strategy(S3))
    with pytest.raises(strategy_error):
        make_induced(1, class_strategy(S3))


def test_associativity_kernel_serves_make_group_theorems_3_1_and_4_1(monkeypatch):
    seed_defect(monkeypatch, groups, "first_non_associative", lambda table: (0, 0, 0))
    with pytest.raises(NotAssociative, match=r"\(0, 0, 0\)"):
        make_group(S3.table)
    for statement in ("Theorem 3.1", "Theorem 4.1"):
        row = row_of(statement)
        assert not row.verdict and "(a, b, c) = (0, 0, 0)" in row.witness
    # Lemma 3.2 reads the same kernel, but a table it rejects is rescanned
    # triple by triple, so a kernel that rejects everything cannot fail it
    assert row_of("Lemma 3.2").verdict


def reversed_after_first(honest):
    """``honest`` composition, except that a composite whose left operand has
    the skeleton of S3's second crisp automorphism is built the other way
    round: not associative on S3, yet a function of the skeleton classes."""
    first = crisp_automorphisms(S3)[1]

    def compose(f, g):
        return honest(g, f) if f.images == first else honest(f, g)

    return compose


def test_lemma_3_2_decides_with_the_associativity_kernel(monkeypatch):
    seed_defect(monkeypatch, maps, "compose_maps", reversed_after_first(maps.compose_maps))
    assert not row_of("Lemma 3.2").verdict
    seed_defect(monkeypatch, groups, "first_non_associative", lambda table: None)
    assert row_of("Lemma 3.2").verdict


def test_lemma_3_2_failure_path_composes_each_pair_once(monkeypatch):
    """The triple scan reads its pair composites from the composite table:
    k^2 compositions build the table, then two per triple visited."""
    defect = reversed_after_first(maps.compose_maps)
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return defect(f, g)

    seed_defect(monkeypatch, maps, "compose_maps", counted)
    named = dict(_Instance(_Group("S3"), "class").aut_samples)
    calls.clear()
    products = automorphisms.composite_table(list(named.values()))
    ok, witness = automorphisms.check_associativity(named, products)
    assert not ok
    tags, k = list(named), len(named)
    triple = re.fullmatch(r"associativity fails at \((.+), (.+), (.+)\)", witness).groups()
    i, j, l = map(tags.index, triple)
    visited = (i * k + j) * k + l + 1
    assert visited > 1
    assert len(calls) == k * k + 2 * visited


def test_label_product_witness_names_the_pair_and_cell():
    family = list(induced_family_raw(S3, class_strategy(S3)))
    label = S3.table[3][1]
    assert label != S3.identity
    family[label] = family[S3.identity]  # the product label now carries the wrong matrix
    ok, witness = induced.check_label_products(S3, family, [(1, 3)])
    assert not ok
    assert witness.startswith("labels (1, 3) at cell (") and f" label-{label}=" in witness
    assert induced.check_label_products(S3, family, [(0, 0)]) == (True, None)


def sup_skeleton(*fs):
    """The skeleton of the sup composition, left to right, of the maps' cells:
    the literal scan, independent of ``compose_maps``."""
    rel = fs[-1]
    for f in reversed(fs[:-1]):
        rel = maps.compose(f, rel)
    return maps.relation_images(rel)


def inner_products_scan(group, family, labels):
    t = group.table
    for g1, g2 in product(labels, repeat=2):
        label = t[g2][g1]
        if sup_skeleton(family[g1], family[g2]) != family[label].images:
            return False, f"labels ({g1}, {g2}): composite not equivalent to label {label}"
    return True, None


def triple_products_scan(group, family, labels):
    t = group.table
    for g1, g2, g3 in product(labels, repeat=3):
        label = t[t[g3][g2]][g1]
        f1, f2, f3 = family[g1], family[g2], family[g3]
        left = maps.relation_images(maps.compose(maps.compose(f1, f2), f3))
        if not (left == sup_skeleton(f1, f2, f3) == family[label].images):
            return False, f"triple ({g1}, {g2}, {g3}) misses label {label}"
    return True, None


def checked(checker, group, family, labels):
    """``checker`` over the ``composite_table`` of the labels' maps, built through
    the ``compose_maps`` bound now, as the harness passes it in."""
    labels = tuple(labels)
    return checker(group, family, labels, automorphisms.composite_table([family[g] for g in labels]))


PRODUCT_CHECKERS = pytest.mark.parametrize(
    "checker, scan",
    [
        (automorphisms.check_inner_products, inner_products_scan),
        (induced.check_triple_products, triple_products_scan),
    ],
    ids=["Lemma 3.7", "Lemma 4.4"],
)


@PRODUCT_CHECKERS
@pytest.mark.parametrize("token", DEFAULT_GROUPS)
@pytest.mark.parametrize("mu", ["chain", "class"])
def test_product_checkers_agree_with_a_literal_scan(checker, scan, token, mu):
    ctx = _Instance(_Group(token), mu)
    expected = scan(ctx.group, ctx.induced_raw, ctx.induced_reps)
    assert expected == (True, None)
    assert checked(checker, ctx.group, ctx.induced_raw, ctx.induced_reps) == expected


@PRODUCT_CHECKERS
@pytest.mark.parametrize("token", ["S3", "D4", "Q8"])
def test_product_witness_names_the_first_failing_labels(checker, scan, token):
    ctx = _Instance(_Group(token), "class")
    group, reps, family = ctx.group, ctx.induced_reps, list(ctx.induced_raw)
    identity = family[group.identity]
    label = next(
        label
        for label in (group.table[g2][g1] for g1, g2 in product(reps, repeat=2))
        if family[label].images != identity.images
    )
    family[label] = identity  # the product label now carries f_e's matrix
    expected = scan(group, family, reps)
    assert not expected[0]
    assert checked(checker, group, family, reps) == expected


def composed_pairs_scan(group, family, labels):
    """Lemma 3.7 pair by pair, through the ``compose_maps`` bound now."""
    t = group.table
    for g1, g2 in product(labels, repeat=2):
        label = t[g2][g1]
        if maps.compose_maps(family[g1], family[g2]).images != family[label].images:
            return False, f"labels ({g1}, {g2}): composite not equivalent to label {label}"
    return True, None


def composed_triples_scan(group, family, labels):
    """Lemma 4.4 triple by triple, all three products of each bracketing
    composed through the ``compose_maps`` bound now."""
    compose, t = maps.compose_maps, group.table
    for g1, g2, g3 in product(labels, repeat=3):
        label = t[t[g3][g2]][g1]
        f1, f2, f3 = family[g1], family[g2], family[g3]
        left, right = compose(compose(f1, f2), f3), compose(f1, compose(f2, f3))
        if not (left.images == right.images == family[label].images):
            return False, f"triple ({g1}, {g2}, {g3}) misses label {label}"
    return True, None


def counting(monkeypatch, compose):
    """Seed ``compose`` as ``compose_maps`` and return the list its calls append to."""
    calls = []

    def counted(f, g):
        calls.append(None)
        return compose(f, g)

    seed_defect(monkeypatch, maps, "compose_maps", counted)
    return calls


@pytest.mark.parametrize("token", ["D4", "Q8"])
def test_lemma_4_4_table_lookups_find_a_wrong_non_representative(monkeypatch, token):
    """The centre has order 2, so half the labels are no representative.  A
    wrong matrix at one of them leaves every pair composite a representative
    exactly: the check takes the table lookups, r^2 compositions in all, and
    must still fail at the scan's first triple."""
    ctx = _Instance(_Group(token), "class")
    group, reps, family = ctx.group, ctx.induced_reps, list(ctx.induced_raw)
    assert 2 * len(reps) == group.order
    identity, t = family[group.identity], group.table
    label = next(
        label
        for label in (t[t[g3][g2]][g1] for g1, g2, g3 in product(reps, repeat=3))
        if label not in reps and family[label].images != identity.images
    )
    family[label] = identity
    expected = triple_products_scan(group, family, reps)
    assert not expected[0]
    calls = counting(monkeypatch, maps.compose_maps)
    assert checked(induced.check_triple_products, group, family, reps) == expected
    assert len(calls) == len(reps) ** 2


def one_pair_gives(a, b, c):
    """Honest ``compose_maps``, except that the pair with exactly the contents
    of maps a and b composes to c: a defect of the operands' contents alone."""
    honest = maps.compose_maps

    def same(f, g):
        return (f.domain, f.codomain, f.images, f.encoding) == (
            g.domain, g.codomain, g.images, g.encoding
        )

    def compose(f, g):
        return c if same(f, a) and same(g, b) else honest(f, g)

    return compose


@pytest.mark.parametrize("token", ["S3", "D4", "Q8"])
def test_a_pair_composed_to_another_representative_fails_as_the_scans(monkeypatch, token):
    """One pair of representatives composes to a third representative's exact
    map.  Lemma 4.4 then identifies that composite with the wrong member, and
    by the purity of composition it must still give the verdict and witness
    of the triple scan composed under the same defect, as Lemma 3.7 gives
    those of the pair scan; so must the campaign rows."""
    ctx = _Instance(_Group(token), "class")
    group, family, reps = ctx.group, ctx.induced_raw, ctx.induced_reps
    a, b = reps[1], reps[-1]
    right = family[group.table[b][a]].images
    c = next(g for g in reps if family[g].images != right)
    calls = counting(monkeypatch, one_pair_gives(family[a], family[b], family[c]))
    for checker, scan in ((automorphisms.check_inner_products, composed_pairs_scan),
                          (induced.check_triple_products, composed_triples_scan)):
        expected = scan(group, family, reps)
        assert not expected[0]
        calls.clear()
        assert checked(checker, group, family, reps) == expected
        assert len(calls) == len(reps) ** 2  # both checkers read the table alone
    campaign = Campaign(groups=(token,), mu_sources=("class",), suites=("Lemma 3.7", "Lemma 4.4"))
    rows = {r.statement: (r.verdict, r.witness) for r in run_campaign(campaign)}
    assert rows["Lemma 3.7"] == composed_pairs_scan(group, family, reps)
    assert rows["Lemma 4.4"] == composed_triples_scan(group, family, reps)


def test_lemma_3_1_checks_every_pair_that_compose_maps_returns(monkeypatch):
    """The pair (lift:aut3, lift:aut1) composes honestly to the composite of
    the first-row pair (lift:aut0, lift:aut2).  A defect of the operands'
    contents sends it to the constant crisp map, and Lemma 3.1 must see that
    pair: a table that composed once per key predicted from the operands
    would never build it."""
    ctx = _Instance(_Group("Q8"), "class")
    tags, samples = zip(*ctx.aut_samples)
    assert tags[:4] == ("lift:aut0", "lift:aut1", "lift:aut2", "lift:aut3")
    first, faulty = maps.compose_maps(samples[0], samples[2]), maps.compose_maps(samples[3], samples[1])
    assert (faulty.images, faulty.encoding) == (first.images, first.encoding)
    constant = crisp_map(ctx.group, ctx.group, (ctx.group.identity,) * ctx.group.order)
    seed_defect(monkeypatch, maps, "compose_maps", one_pair_gives(samples[3], samples[1], constant))
    assert _SUITES["Lemma 3.1"](_Instance(_Group("Q8"), "class")) == (
        False, "(lift:aut3) . (lift:aut1): fuzzy images (0, 0, 0, 0, 0, 0, 0, 0) repeat a value"
    )


def least_non_normal_chain(group):
    """The chain mu over the least non-normal subgroup, as the normality ablation builds it."""
    normal = set(groups.normal_subgroups(group))
    non_normal = next(s for s in groups.all_subgroups(group) if s not in normal)
    chain = [frozenset({group.identity}), non_normal, frozenset(group.elements)]
    return subsets.gen_mu_chain(group, chain, ("1", "1/2", "1/4"))


def representatives(family):
    """The least label per distinct skeleton, as ``_Instance.induced_reps`` picks them."""
    seen = {}
    for g, fmap in enumerate(family):
        seen.setdefault(fmap.images, g)
    return sorted(seen.values())


@PRODUCT_CHECKERS
@pytest.mark.parametrize("token", ["S3", "D4"])
@pytest.mark.parametrize("wrong", [False, True], ids=["as built", "one wrong label"])
def test_product_checkers_over_a_non_normal_mu_agree_with_a_literal_scan(
    monkeypatch, checker, scan, token, wrong
):
    """A non-normal mu leaves some pair composite off every family member, so
    Lemma 4.4 composes the triples whose inner pair is such a composite."""
    group = builtin_group(token)
    family = induced_family_raw(group, least_non_normal_chain(group))
    reps = representatives(family)
    if wrong:
        t, identity = group.table, family[group.identity]
        label = next(
            label
            for label in (t[g2][g1] for g1, g2 in product(reps, repeat=2))
            if family[label].images != identity.images
        )
        family[label] = identity
    expected = scan(group, family, reps)
    assert expected[0] is not wrong
    calls = counting(monkeypatch, maps.compose_maps)
    assert checked(checker, group, family, reps) == expected
    if checker is induced.check_triple_products:
        assert len(calls) > len(reps) ** 2


@PRODUCT_CHECKERS
@pytest.mark.parametrize("mu", ["chain", "class"])
def test_product_checkers_over_every_label_and_a_dict_family(checker, scan, mu):
    """Every label of D4, so skeletons repeat among the checked maps, from the
    family as a list and as a dict."""
    ctx = _Instance(_Group("D4"), mu)
    group, family = ctx.group, ctx.induced_raw
    expected = scan(group, family, group.elements)
    assert expected == (True, None)
    assert checked(checker, group, family, group.elements) == expected
    assert checked(checker, group, dict(enumerate(family)), group.elements) == expected
    reps = ctx.induced_reps
    assert checked(checker, group, dict(enumerate(family)), reps) == scan(group, family, reps)
    keys = [(f.images, f.encoding) for f in family]
    assert len(set(keys)) < len(keys)
    composites, _, index = automorphisms.composite_table(family)
    for h, a in zip(composites, index):  # the first label with the composite's map
        key = (h.images, h.encoding)
        assert a == (keys.index(key) if key in keys else None)


def skeleton_in_wrong_order(f, g):
    """f.g with the right rows but the skeleton of g.f."""
    rows = tuple(f.grades[a] for a in g.images)
    return FuzzyMap(g.domain, f.codomain, rows, tuple(g.images[a] for a in f.images))


def rows_not_reindexed(f, g):
    """f.g with the right skeleton but f's rows left in place."""
    return FuzzyMap(g.domain, f.codomain, f.grades, tuple(f.images[a] for a in g.images))


@pytest.mark.parametrize(
    "fake, caught_by",
    [
        # the skeleton laws see a wrong skeleton, and the automorphism check
        # of composites (3.1, 3.9) sees a skeleton off the rows' unit entries
        (skeleton_in_wrong_order, {"Lemma 3.1", "Lemma 3.7", "Lemma 3.9", "Lemma 4.4"}),
        # the same automorphism check, and the pointwise laws of the induced
        # family, which compare rows
        (rows_not_reindexed, {"Lemma 3.1", "Lemma 3.9", "Lemma 4.3", "Lemma 4.5", "Lemma 4.6"}),
    ],
)
def test_campaign_catches_a_broken_map_composition(monkeypatch, fake, caught_by):
    seed_defect(monkeypatch, maps, "compose_maps", fake)
    rows = run_campaign(Campaign(groups=("S3",), mu_sources=("class",)))
    assert {r.statement for r in rows if not r.verdict} == caught_by


def seeded_samples():
    """Three hand-built maps of S3 that the law checkers must reject, by tag."""
    mu = class_strategy(S3)
    identity = lift_hom(tuple(S3.elements), mu, S3)
    return {
        # bijective, and no homomorphism: it swaps a transposition and a 3-cycle
        "seed:swap": crisp_map(S3, S3, (0, 3, 2, 1, 4, 5)),
        # a fuzzy homomorphism onto the identity, so not injective
        "seed:collapse": lift_hom((0,) * 6, mu, S3),
        # the identity lift's cells under a skeleton that repeats 1
        "seed:stale": FuzzyMap(S3, S3, None, (0, 1, 1, 1, 1, 1), identity.encoding),
    }


SEEDED_STATEMENTS = ("Theorem 2.1", "Theorem 2.2", "Lemma 3.1", "Lemma 3.6", "Lemma 3.9")
NOT_HOM = "f(x1*x2, y) = {} but sup over factorizations = {} at (x1, x2, y) = {}"
NOT_BIJECTIVE = "NotBijective: FuzzyMap(S3 -> S3) is not one-one and onto"

# (statement, verdict, witness) of S3|mu=class with one seeded sample
SEEDED_ROWS = {
    "seed:swap": [
        ("Lemma 3.1", False, "(lift:aut0) . (seed:swap): " + NOT_HOM.format(1, "1/2", (1, 1, 0))),
        ("Lemma 3.6", False, "seed:swap: " + NOT_HOM.format(1, 0, (1, 1, 0))),
        ("Lemma 3.9", False, "conjugate of label 1 by seed:swap: skeleton (0, 4, 5, 3, 1, 2) "
                             "is not inner"),
        ("Theorem 2.1", False, "seed:swap: failed images multiply, inverses map to inverses, "
                               "unit entries invert"),
        ("Theorem 2.2", False, "seed:swap: NotHomomorphism: " + NOT_HOM.format(1, 0, (1, 1, 0))),
    ],
    "seed:collapse": [
        ("Lemma 3.1", False, "(lift:aut0) . (seed:collapse): fuzzy images (0, 0, 0, 0, 0, 0) "
                             "repeat a value"),
        ("Lemma 3.6", False, "seed:collapse: " + NOT_BIJECTIVE),
        ("Lemma 3.9", False, "seed:collapse: " + NOT_BIJECTIVE),
        ("Theorem 2.1", True, None),
        ("Theorem 2.2", True, None),
    ],
    "seed:stale": [
        ("Lemma 3.1", False, "(lift:aut0) . (seed:stale): " + NOT_HOM.format("1/4", 1, (1, 2, 0))),
        ("Lemma 3.6", False, "seed:stale: " + NOT_BIJECTIVE),
        ("Lemma 3.9", False, "seed:stale: " + NOT_BIJECTIVE),
        ("Theorem 2.1", False, "seed:stale: failed images multiply"),
        ("Theorem 2.2", False, "seed:stale: kernel=(0,) normal=True one_one=False trivial=True"),
    ],
}


def seeded_rows(monkeypatch, tag, suites):
    """(statement, verdict, witness) of S3|mu=class with the seed ``tag`` added
    to the instance's samples below every checker."""
    samples = _Instance.aut_samples
    seed = seeded_samples()[tag]
    monkeypatch.setattr(
        _Instance, "aut_samples", property(lambda ctx: samples.func(ctx) + [(tag, seed)])
    )
    rows = run_campaign(Campaign(groups=("S3",), mu_sources=("class",), suites=suites))
    return [(r.statement, r.verdict, r.witness) for r in rows]


@pytest.mark.parametrize("tag", SEEDED_ROWS)
def test_seeded_samples_fail_with_pinned_witnesses(monkeypatch, tag):
    """A map the checkers reject, added to the instance's samples below every
    checker, fails these rows with the witnesses they gave when pinned."""
    assert seeded_rows(monkeypatch, tag, SEEDED_STATEMENTS) == SEEDED_ROWS[tag]


@pytest.mark.parametrize("tag", ["seed:collapse", "seed:stale"])
def test_a_sample_with_no_transpose_fails_each_lemma_that_reads_it(monkeypatch, tag):
    """The instance transposes each sample once for Lemmas 3.4, 3.5, 3.6 and
    3.9; a sample that has no transpose fails all four under its own tag, with
    the text ``inverse_map`` raised, as it did when each lemma transposed it."""
    suites = ("Lemma 3.4", "Lemma 3.5", "Lemma 3.6", "Lemma 3.9")
    assert seeded_rows(monkeypatch, tag, suites) == [(s, False, f"{tag}: {NOT_BIJECTIVE}")
                                                      for s in suites]


SECTION_4_THEOREMS = ("Theorem 4.1", "Theorem 4.2", "Theorem 4.3")

# (name in induced, fake, {(statement, instance): witness} of the rows that fail)
SECTION_4_SEEDS = {
    "first_non_multiplicative": (lambda *args: (0, 0), {
        ("Theorem 4.2", "Q8|mu=class"): "not multiplicative",
        ("Theorem 4.2", "S3|mu=class"): "not multiplicative",
    }),
    "is_one_one": (lambda f: False, {
        ("Theorem 4.3", "Q8|mu=class"): "not one-one",
        ("Theorem 4.3", "S3|mu=class"): "not one-one",
    }),
    "opposite_group": (lambda group: group, {
        ("Theorem 4.3", "Q8|mu=class"): "sup condition fails: " + NOT_HOM.format("1/2", 1, (2, 4, 6)),
        ("Theorem 4.3", "S3|mu=class"): "sup condition fails: " + NOT_HOM.format(1, "1/2", (1, 2, 3)),
    }),
    "center": (lambda group: frozenset({group.identity}), {
        ("Theorem 4.1", "Q8|mu=class"): "4 classes with a center of size 1 in a group of order 8",
        ("Theorem 4.2", "Q8|mu=class"): "kernel (0, 1) is not the center",
    }),
}


@pytest.mark.parametrize("name", SECTION_4_SEEDS)
def test_section_4_theorems_fail_with_pinned_witnesses(monkeypatch, name):
    """A defect seeded in one name the section 4 theorems read in ``induced``
    fails the rows of the facts it breaks, each with its own witness."""
    fake, failing = SECTION_4_SEEDS[name]
    monkeypatch.setattr(induced, name, fake)
    clear_derived()
    rows = run_campaign(Campaign(groups=("S3", "Q8"), mu_sources=("class",),
                                 suites=SECTION_4_THEOREMS))
    assert [(r.statement, r.instance) for r in rows] == [
        (statement, instance)
        for statement in SECTION_4_THEOREMS for instance in ("Q8|mu=class", "S3|mu=class")
    ]
    assert {(r.statement, r.instance): r.witness for r in rows if not r.verdict} == failing
    assert all(r.witness is None for r in rows if r.verdict)
