"""Fuzzy homomorphisms: the sup condition, kernels, structural facts, lifts."""

import itertools
import random
import re
from fractions import Fraction as F

import pytest

from hypothesis import given, settings, strategies as st

from fuzzaut.groups import (
    all_subgroups,
    builtin_group,
    conjugations,
    crisp_automorphisms,
    generating_sequence,
    make_group,
    normal_subgroups,
    quotient_group,
)
from fuzzaut import harness, homs
from fuzzaut.harness import DEFAULT_GROUPS, Campaign, _Group, _Instance, run_campaign
from fuzzaut.homs import (
    HomCheckReport,
    HomWitness,
    NotHomomorphism,
    OracleRejected,
    check_theorem_2_1,
    check_theorem_2_2,
    is_fuzzy_homomorphism,
    kernel,
    lift_hom,
)
from fuzzaut.maps import (
    FuzzyMap, compose_maps, crisp_map, indexed_map, inverse_map, make_fuzzy_map, ranked_map,
)
from fuzzaut.subsets import (
    FuzzySubset, MuNotNormal, MuNotPointed, chain_strategy, class_strategy, flat_mu, fuzzy_subset,
)
from fuzzaut.induced import induced_family_raw

S3 = builtin_group("S3")
Z2 = builtin_group("Z2")
Z4 = builtin_group("Z4")
SIGN = (0, 1, 1, 0, 0, 1)  # parity of each permutation of S3


def sup_condition_oracle(f):
    """Literal sup-over-factorizations check, no rank compression."""
    g, h = f.domain, f.codomain
    for x1 in g.elements:
        for x2 in g.elements:
            for y in h.elements:
                best = max(
                    min(f.grades[x1][y1], f.grades[x2][y2])
                    for y1 in h.elements
                    for y2 in h.elements
                    if h.table[y1][y2] == y
                )
                if f.grades[g.table[x1][x2]][y] != best:
                    return False
    return True


class TestHomPredicate:
    def test_crisp_indicator_of_crisp_hom(self):
        f = crisp_map(S3, Z2, SIGN)
        assert is_fuzzy_homomorphism(f).verdict

    def test_crisp_indicator_of_non_hom(self):
        f = crisp_map(S3, Z2, (0, 1, 1, 1, 0, 1))
        report = is_fuzzy_homomorphism(f)
        assert not report.verdict and report.witness is not None

    def test_induced_maps_are_homs(self):
        mu = class_strategy(S3)
        for fmap in induced_family_raw(S3, mu):
            assert is_fuzzy_homomorphism(fmap).verdict

    def test_corrupted_unit_entry_gives_witness(self):
        mu = chain_strategy(Z4)
        ident = lift_hom(tuple(Z4.elements), mu, Z4)
        rows = [list(r) for r in ident.grades]
        rows[1] = [0, 0, 1, 0]  # image of 1 forced to 2; skeleton no longer multiplies
        bad = make_fuzzy_map(Z4, Z4, rows)
        report = is_fuzzy_homomorphism(bad)
        assert not report.verdict
        assert report.witness.lhs != report.witness.rhs

    def test_agrees_with_literal_oracle(self):
        mu = chain_strategy(S3)
        for fmap in induced_family_raw(S3, mu)[:3]:
            assert is_fuzzy_homomorphism(fmap).verdict == sup_condition_oracle(fmap)
        bad = crisp_map(S3, Z2, (0, 1, 1, 1, 0, 1))
        assert is_fuzzy_homomorphism(bad).verdict == sup_condition_oracle(bad)


def full_scan_witness(f):
    """First (x1, x2, y) off the sup condition in lexicographic order, or None."""
    g, h = f.domain, f.codomain
    for x1 in g.elements:
        for x2 in g.elements:
            for y in h.elements:
                best = max(
                    min(f.grades[x1][y1], f.grades[x2][h.table[h.inverses[y1]][y]])
                    for y1 in h.elements
                )
                lhs = f.grades[g.table[x1][x2]][y]
                if lhs != best:
                    return HomWitness(x1, x2, y, lhs, best)
    return None


def assert_matches_oracles(f):
    report = is_fuzzy_homomorphism(f)
    witness = full_scan_witness(f)
    assert report.verdict == sup_condition_oracle(f) == (witness is None)
    assert report.witness == witness


Q8 = builtin_group("Q8")
D4 = builtin_group("D4")
ORACLE_PAIRS = [(S3, S3), (D4, D4), (Q8, Q8), (S3, Z2)]
LOW_GRADES = [F(0), F(1, 3), F(1, 2), F(2, 3)]


def lifted_homs(domain, codomain):
    """Graded lifts of every crisp homomorphism the oracle pairs use."""
    if codomain == Z2:
        mus = (class_strategy(Z2), fuzzy_subset(Z2, ["1", "1/2"]))
        return [lift_hom(SIGN, mu, S3) for mu in mus]
    return [
        lift_hom(sigma, mu, domain)
        for sigma in crisp_automorphisms(domain)
        for mu in (chain_strategy(domain), class_strategy(domain))
    ]


class TestGeneratorCheckMatchesFullScan:
    """The generator pass decides; the full scan is the oracle for verdict and witness."""

    @given(data=st.data(), pair=st.sampled_from(ORACLE_PAIRS))
    @settings(max_examples=60, deadline=None)
    def test_random_maps(self, data, pair):
        domain, codomain = pair
        n = domain.order
        units = data.draw(st.lists(st.sampled_from(codomain.elements), min_size=n, max_size=n))
        low = st.sampled_from(LOW_GRADES)
        rows = [
            [F(1) if y == units[x] else data.draw(low) for y in codomain.elements]
            for x in domain.elements
        ]
        assert_matches_oracles(make_fuzzy_map(domain, codomain, rows))

    @given(data=st.data(), pair=st.sampled_from(ORACLE_PAIRS))
    @settings(max_examples=60, deadline=None)
    def test_lifts_with_one_grade_changed_off_the_generators(self, data, pair):
        domain, codomain = pair
        f = data.draw(st.sampled_from(lifted_homs(domain, codomain)))
        gens = generating_sequence(domain)
        x = data.draw(st.sampled_from([x for x in domain.elements if x not in gens]))
        y = data.draw(st.sampled_from([y for y in codomain.elements if y != f.images[x]]))
        new = data.draw(st.sampled_from([v for v in LOW_GRADES if v != f.grades[x][y]]))
        rows = [list(row) for row in f.grades]
        rows[x][y] = new
        assert_matches_oracles(make_fuzzy_map(domain, codomain, rows))

    @pytest.mark.parametrize("domain", [S3, D4, Q8], ids=lambda g: g.name)
    def test_maps_that_respect_only_a_subgroup(self, domain):
        """Row h*c is row h of a lifted automorphism, for c the least of its coset Hc.

        The condition then holds at every (g, x) with g in H, so a check that
        tested a proper subset of the generators would accept the map.
        """
        f = lift_hom(crisp_automorphisms(domain)[-1], chain_strategy(domain), domain)
        t, inv = domain.table, domain.inverses
        for sub in all_subgroups(domain)[1:-1]:
            rows = []
            for x in domain.elements:
                c = min(t[h][x] for h in sub)
                rows.append(f.grades[t[x][inv[c]]])
            assert_matches_oracles(make_fuzzy_map(domain, domain, rows))

    def test_first_witness_can_lie_outside_the_generators(self):
        f = lift_hom(tuple(Q8.elements), chain_strategy(Q8), Q8)
        rows = [list(row) for row in f.grades]
        rows[6][0] = F(1, 3)  # row of k, not a generator
        report = is_fuzzy_homomorphism(make_fuzzy_map(Q8, Q8, rows))
        gens = generating_sequence(Q8)
        assert 6 not in gens
        assert report.witness.x1 not in gens and report.witness.x2 not in gens


V4 = builtin_group("V4")


class TestRowProductMemo:
    """The memo of row products is exact and kept per codomain."""

    @pytest.mark.parametrize("z4_first", [True, False])
    @pytest.mark.parametrize("mu", [None, chain_strategy(Z4)], ids=["crisp", "graded"])
    def test_same_rank_rows_over_two_codomains(self, z4_first, mu):
        over_z4 = crisp_map(Z4, Z4, Z4.elements) if mu is None else lift_hom(Z4.elements, mu, Z4)
        over_v4 = make_fuzzy_map(Z4, V4, over_z4.grades)
        assert over_z4.encoding == over_v4.encoding
        homs._row_tables.cache_clear()
        order = [over_z4, over_v4] if z4_first else [over_v4, over_z4]
        verdicts = {f.codomain.name: is_fuzzy_homomorphism(f).verdict for f in order}
        assert verdicts == {"Z4": True, "V4": False}
        for f in order:
            assert_matches_oracles(f)

    @pytest.mark.parametrize("z4_first", [True, False])
    @pytest.mark.parametrize("mu", [None, chain_strategy(Z4)], ids=["crisp", "graded"])
    def test_same_rank_rows_over_two_domains(self, z4_first, mu):
        """A passing key names its domain: V4 must not inherit Z4's verdict."""
        over_z4 = crisp_map(Z4, Z4, Z4.elements) if mu is None else lift_hom(Z4.elements, mu, Z4)
        over_v4 = make_fuzzy_map(V4, Z4, over_z4.grades)
        assert over_z4.encoding == over_v4.encoding
        homs._row_tables.cache_clear()
        order = [over_z4, over_v4] if z4_first else [over_v4, over_z4]
        verdicts = {f.domain.name: is_fuzzy_homomorphism(f).verdict for f in order}
        assert verdicts == {"Z4": True, "V4": False}
        for f in order:
            assert_matches_oracles(f)

    @given(data=st.data(), pair=st.sampled_from(ORACLE_PAIRS))
    @settings(max_examples=20, deadline=None)
    def test_warm_memo_gives_the_cold_answers(self, data, pair):
        domain, codomain = pair
        lifts = lifted_homs(domain, codomain)
        batch = []
        for _ in range(data.draw(st.integers(2, 6))):
            f = data.draw(st.sampled_from(lifts))
            rows = [list(row) for row in f.grades]
            if data.draw(st.booleans()):
                x = data.draw(st.sampled_from(domain.elements))
                y = data.draw(st.sampled_from([y for y in codomain.elements if y != f.images[x]]))
                rows[x][y] = data.draw(st.sampled_from(LOW_GRADES))
            batch.append(make_fuzzy_map(domain, codomain, rows))
        homs._row_tables.cache_clear()
        cold = [tuple(is_fuzzy_homomorphism(f)) for f in batch]
        warm = [tuple(is_fuzzy_homomorphism(f)) for f in reversed(batch)]
        assert warm == cold[::-1]
        for f in reversed(batch):
            assert_matches_oracles(f)

    def test_memo_stays_bounded(self, monkeypatch):
        """A check over D4 reserves more than 63 entries (see
        ``TestReservation``), so under a bound of 63 each check starts from
        empty stores and a lift's check leaves at most 63 entries of
        ``size``, ``cores`` at most as many as ``memo`` (this summed
        ``memo``, ``row_ids``, ``passed`` and the centred-row stores
        ``lefts`` and ``rights``, since deleted)."""
        monkeypatch.setattr(homs, "ROW_PRODUCT_MEMO_BOUND", 63)
        homs._row_tables.cache_clear()
        for f in lifted_homs(D4, D4):
            assert_matches_oracles(f)
            t = homs._row_tables(D4)
            assert 0 < t.size() <= 63 and len(t.cores) <= len(t.memo)

    def test_checks_straddling_a_reset_give_the_cold_answers(self, monkeypatch):
        batch = []
        for i, f in enumerate(lifted_homs(D4, D4)):
            batch.append(f)
            rows = [list(row) for row in f.grades]
            x = i % D4.order
            y = next(y for y in D4.elements if y != f.images[x])
            rows[x][y] = LOW_GRADES[1 + i % 3] if rows[x][y] == 0 else F(0)
            batch.append(make_fuzzy_map(D4, D4, rows))
        cold = []
        for f in batch:
            homs._row_tables.cache_clear()
            cold.append(tuple(is_fuzzy_homomorphism(f)))
        assert {verdict for verdict, _ in cold} == {True, False}
        # a check over D4 reserves 81 entries, so some checks run warm and some reset
        monkeypatch.setattr(homs, "ROW_PRODUCT_MEMO_BOUND", 128)
        homs._row_tables.cache_clear()
        warm, sizes = [], []
        for f in batch:
            warm.append(tuple(is_fuzzy_homomorphism(f)))
            sizes.append(len(homs._row_tables(D4).row_ids))
        steps = list(zip(sizes, sizes[1:]))
        assert any(b < a for a, b in steps)  # the tables were reset
        assert any(b > a for a, b in steps)  # and grew between resets
        assert warm == cold


    def test_a_reset_forgets_the_passing_keys(self, monkeypatch):
        """After a reset, row ids are handed out again from 0, so a key kept
        from before it could name another map: here a failing one whose rows
        get the ids the passing map's rows had."""
        good = lift_hom(D4.elements, chain_strategy(D4), D4)
        rows = [list(row) for row in good.grades]
        rows[0][1] = LOW_GRADES[2] if rows[0][1] == 0 else F(0)
        bad = make_fuzzy_map(D4, D4, rows)
        homs._row_tables.cache_clear()
        assert not is_fuzzy_homomorphism(bad).verdict
        monkeypatch.setattr(homs, "ROW_PRODUCT_MEMO_BOUND", 40)  # the first check of bad resets
        homs._row_tables.cache_clear()
        verdicts = [is_fuzzy_homomorphism(f).verdict for f in (good, bad, bad)]
        assert verdicts == [True, False, False]
        assert_matches_oracles(bad)


class TestReservation:
    """``_failing_generator_pair`` clears a codomain's stores unless they can
    take the 3(|S| + 1)(n + 1) entries of ``size`` it reserves for a pass over
    |S| generators and n rows; no pass grows them by more than that."""

    @pytest.mark.parametrize("campaign", [
        harness.default_campaign(), Campaign(groups=("S4",)), Campaign(groups=("direct_product(Z2,Q8)",)),
    ], ids=["default", "S4", "Z2xQ8"])
    def test_no_pass_outgrows_its_reservation(self, monkeypatch, campaign):
        passes, cleared, check, clear = [], [], homs._failing_generator_pair, homs._RowTables.clear

        def measured(f):
            tables = homs._row_tables(f.codomain)
            before = tables.size()
            reserved = 3 * (len(generating_sequence(f.domain)) + 1) * (f.domain.order + 1)
            cleared.clear()
            failing = check(f)
            passes.append((tables.size() - (0 if cleared else before), reserved, tables.size()))
            return failing

        monkeypatch.setattr(homs, "_failing_generator_pair", measured)
        monkeypatch.setattr(homs._RowTables, "clear", lambda self: cleared.append(None) or clear(self))
        homs._row_tables.cache_clear()
        run_campaign(campaign)
        assert passes and max(grown for grown, _, _ in passes) > 0
        assert all(grown <= reserved for grown, reserved, _ in passes)
        assert all(size < homs.ROW_PRODUCT_MEMO_BOUND for _, _, size in passes)


def literal_row_product(rg, rx, group):
    """(R_g * R_x)(y) = max over y1 of min(R_g(y1), R_x(y1^-1 y)), read off the table."""
    t, inv = group.table, group.inverses
    return tuple(
        max(min(rg[y1], rx[t[inv[y1]][y]]) for y1 in group.elements) for y in group.elements
    )


def cyclic(n):
    """Z_n through ``make_group``, which takes orders above ``groups.MAX_ORDER``."""
    return make_group([[(a + b) % n for b in range(n)] for a in range(n)], name=f"Z{n}")


Z258 = cyclic(258)
ROW_PRODUCT_GROUPS = [builtin_group(t) for t in DEFAULT_GROUPS] + [
    builtin_group("S4"),
    builtin_group("direct_product(Z2,Q8)"),
    builtin_group("direct_product(Z16,Z16)"),  # element 255, the last byte index
    Z258,  # no element index above 255 fits a byte
]


class TestRowProduct:
    """``_row_product`` against the literal sup-min product of two rank rows."""

    @pytest.mark.parametrize("group", ROW_PRODUCT_GROUPS, ids=lambda g: g.name)
    def test_random_rank_rows(self, group):
        columns = homs._row_tables(group).columns
        rng = random.Random(group.name)
        for count in (1, 2, 8, 9, 16, 17, 300):
            for _ in range(3):
                rg = [rng.randrange(count) for _ in group.elements]
                rx = [rng.randrange(count) for _ in group.elements]
                rg[rng.randrange(group.order)] = rx[rng.randrange(group.order)] = count - 1
                expected = literal_row_product(rg, rx, group)
                assert homs._row_product(tuple(rg), tuple(rx), columns) == expected

    def test_ranks_above_255(self):
        """Z17 -> Z17 with a distinct grade in every cell off the skeleton."""
        z17 = cyclic(17)
        rows = [
            [F(1) if y == x else F(17 * x + y + 1, 300) for y in z17.elements]
            for x in z17.elements
        ]
        f = make_fuzzy_map(z17, z17, rows)
        assert max(map(max, f.encoding[1])) > 255
        assert_matches_oracles(f)
        assert not is_fuzzy_homomorphism(f).verdict

    def test_codomain_above_order_256(self):
        """The full scan is the oracle here: ``sup_condition_oracle`` would visit
        m^2 factor pairs per cell."""
        grades = ["1" if y == 0 else "1/2" if y == 129 else "0" for y in Z258.elements]
        f = lift_hom((0, 129), fuzzy_subset(Z258, grades), Z2)
        rows = [list(row) for row in f.grades]
        rows[1][5] = F(1, 2)
        bad = make_fuzzy_map(Z2, Z258, rows)
        for fmap, verdict in ((f, True), (bad, False)):
            report = is_fuzzy_homomorphism(fmap)
            assert report.verdict == verdict
            assert report.witness == full_scan_witness(fmap)


def translate(row, c, d, group):
    """tau_c rho_d of a row: y -> row(c^-1 y d^-1)."""
    t, inv = group.table, group.inverses
    return tuple(row[t[t[inv[c]][y]][inv[d]]] for y in group.elements)


class TestTranslatedProduct:
    """R_g * R_x read off the core of the centred rows, against the literal product."""

    @pytest.fixture
    def cores(self, monkeypatch):
        """The calls of ``_row_product`` on cold row tables."""
        calls, row_product = [], homs._row_product

        def counted(*args):
            calls.append(args)
            return row_product(*args)

        monkeypatch.setattr(homs, "_row_product", counted)
        homs._row_tables.cache_clear()
        return calls

    @staticmethod
    def translated(rg, rx, c, d, tables):
        """R_g * R_x through ``_translated_product``, which takes the rows and
        shifts alone (it took the row ids of rg and rx as well when the
        centred rows were kept under (row id, shift))."""
        return homs._translated_product(rg, c, rx, d, tables)

    @pytest.mark.parametrize("group", ROW_PRODUCT_GROUPS, ids=lambda g: g.name)
    def test_random_rows_at_any_shifts(self, group):
        """The product of two rows does not depend on the shifts it is
        translated by: every (c, d) up to order 24; above it, pairs of random
        shifts, element 255 (the last byte index) and the last element."""
        homs._row_tables.cache_clear()
        tables = homs._row_tables(group)
        rng = random.Random(group.name)
        if group.order <= 24:
            shifts = list(itertools.product(group.elements, repeat=2))
        else:
            edge = min(255, group.order - 1)
            shifts = [(0, 0), (edge, 1), (1, edge), (edge, group.order - 1)]
            shifts += [(rng.randrange(group.order), rng.randrange(group.order)) for _ in range(4)]
        for count in (1, 2, 9, 300):
            rg = tuple(rng.randrange(count) for _ in group.elements)
            rx = tuple(rng.randrange(count) for _ in group.elements)
            expected = literal_row_product(rg, rx, group)
            for c, d in shifts:
                assert self.translated(rg, rx, c, d, tables) == expected, (count, c, d)

    @pytest.mark.parametrize("group", ROW_PRODUCT_GROUPS, ids=lambda g: g.name)
    def test_translates_of_two_rows_share_one_core(self, group, cores):
        tables = homs._row_tables(group)
        rng = random.Random(group.name)
        a = tuple(rng.randrange(9) for _ in group.elements)
        b = tuple(rng.randrange(9) for _ in group.elements)
        for _ in range(6):
            c, d = rng.randrange(group.order), rng.randrange(group.order)
            rg, rx = translate(a, c, 0, group), translate(b, 0, d, group)
            assert self.translated(rg, rx, c, d, tables) == literal_row_product(rg, rx, group)
        assert len(cores) == 1

    def test_lifts_through_a_normal_mu_take_one_core(self, cores):
        s4 = builtin_group("S4")
        mu = class_strategy(s4)
        for sigma in crisp_automorphisms(s4):
            lift_hom(sigma, mu, s4)
        assert len(cores) == 1

    @given(data=st.data(), pair=st.sampled_from(ORACLE_PAIRS))
    @settings(max_examples=40, deadline=None)
    def test_maps_whose_images_lie(self, data, pair):
        """``images`` is read for the shifts only, so a map built with wrong
        ones gets the verdict and witness of its cells."""
        domain, codomain = pair
        f = data.draw(st.sampled_from(lifted_homs(domain, codomain)))
        values, rows = f.encoding
        if data.draw(st.booleans()):
            x = data.draw(st.sampled_from(domain.elements))
            y = data.draw(st.sampled_from([y for y in codomain.elements if y != f.images[x]]))
            low = data.draw(st.sampled_from(range(len(values) - 1)))
            rows = rows[:x] + (rows[x][:y] + (low,) + rows[x][y + 1:],) + rows[x + 1:]
        n = domain.order
        images = data.draw(st.lists(st.sampled_from(codomain.elements), min_size=n, max_size=n))
        liar = FuzzyMap(domain, codomain, None, tuple(images), (values, rows))
        homs._row_tables.cache_clear()
        assert_matches_oracles(liar)


    @pytest.mark.parametrize(
        "images", [(8,) * 8, (-1,) * 8, (0,) * 7], ids=["past-the-end", "negative", "short"]
    )
    def test_maps_whose_images_are_no_elements(self, images):
        """Only a hand-built map can have them; they must not index the tables."""
        good = lift_hom(crisp_automorphisms(D4)[-1], chain_strategy(D4), D4)
        rows = [list(row) for row in good.encoding[1]]
        rows[3][0] = 1 if rows[3][0] == 0 else 0
        bad = make_fuzzy_map(D4, D4, [[good.encoding[0][r] for r in row] for row in rows])
        verdicts = []
        for f in (good, bad):
            homs._row_tables.cache_clear()
            liar = FuzzyMap(D4, D4, None, images, f.encoding)
            assert_matches_oracles(liar)
            verdicts.append(is_fuzzy_homomorphism(liar).verdict)
        assert verdicts == [True, False]


# the literal scans of Z2xQ8's 589 distinct maps under both mus take seconds; the
# class mu alone has 210
GENERATOR_CHOICE_INSTANCES = [
    *((token, ("chain", "class")) for token in DEFAULT_GROUPS + ("S4", "D8")),
    ("direct_product(Z2,Q8)", ("class",)),
]


def campaign_maps(token, sources):
    """Every hom sample, transpose, Lemma 3.5 composite and family map of the
    group's instances, built in the order a campaign builds them."""
    shared, maps = _Group(token), []
    for source in sources:
        ctx = _Instance(shared, source)
        maps += [f for _, f in ctx.hom_samples]
        for _, f in ctx.aut_samples:
            transpose = inverse_map(f)
            maps += [transpose, compose_maps(transpose, f)]
        maps += ctx.induced_raw
    return maps


class TestGeneratorChoice:
    """Any generating set decides the oracle, so the generators a pass takes
    from the rows it has multiplied give the verdict of a pass over
    ``generating_sequence`` and of the literal scan."""

    @pytest.fixture
    def chosen(self, monkeypatch):
        """The (domain, generators) of every pass, from cold row tables."""
        calls, pass_generators = [], homs._pass_generators

        def spy(domain, ids, gens, tables):
            calls.append((domain, pass_generators(domain, ids, gens, tables)))
            return calls[-1][1]

        monkeypatch.setattr(homs, "_pass_generators", spy)
        homs._row_tables.cache_clear()
        yield calls
        homs._row_tables.cache_clear()

    @pytest.mark.parametrize(
        "token, sources", GENERATOR_CHOICE_INSTANCES,
        ids=lambda value: value if isinstance(value, str) else "+".join(value),
    )
    def test_campaign_maps(self, token, sources, chosen):
        maps = campaign_maps(token, sources)  # every lift takes its pass as it is built
        warm = [homs._failing_generator_pair(f) is None for f in maps]
        group = maps[0].domain
        gens = generating_sequence(group)
        if len(crisp_automorphisms(group)) > 1:
            assert any(held != gens for _, held in chosen)
        verdicts = {}
        for f in maps:
            key = f.domain, f.codomain, f.encoding[1]
            if key in verdicts:
                continue
            homs._row_tables.cache_clear()
            cold = homs._failing_generator_pair(f) is None
            assert chosen[-1] == (f.domain, generating_sequence(f.domain))
            pairs = itertools.product(f.domain.elements, repeat=2)
            columns = homs._row_tables(f.codomain).columns
            literal = homs._first_violation(f.encoding[1], f.domain.table, columns, pairs) is None
            assert cold == literal
            verdicts[key] = literal
        assert warm == [verdicts[f.domain, f.codomain, f.encoding[1]] for f in maps]

    def test_rows_that_do_not_generate_fall_back(self, chosen):
        """The two projections of V4 = Z2 x Z2 onto Z2, lifted through one mu.
        The second lift holds the first's generator rows first at 0 and 1,
        which generate only {0, 1}, so its pass takes ``generating_sequence``;
        so does the pass over the second lift with one grade lowered, which
        fails."""
        mu, gens = fuzzy_subset(Z2, ["1", "1/2"]), generating_sequence(V4)
        first = lift_hom([x // 2 for x in V4.elements], mu, V4)
        second = lift_hom([x % 2 for x in V4.elements], mu, V4)
        assert first.encoding[1][1] == second.encoding[1][0] != second.encoding[1][1]
        rows = [list(row) for row in second.grades]
        rows[3][0] = F(0)  # R_3 = R_1 * R_2 holds 1/2 there
        bad = make_fuzzy_map(V4, Z2, rows)
        assert not is_fuzzy_homomorphism(bad).verdict
        assert chosen == [(V4, gens)] * 3
        assert_matches_oracles(second)


class TestPassesDisagree:
    """A generator pass that rejects what the full scan passes is a named defect."""

    @pytest.fixture
    def wrong_products(self, monkeypatch):
        monkeypatch.setattr(homs, "_row_product", lambda rg, rx, planes: (0,) * len(rx))
        homs._row_tables.cache_clear()
        yield
        homs._row_tables.cache_clear()

    def test_is_named_with_the_generator_and_row(self, wrong_products):
        f = induced_family_raw(S3, class_strategy(S3))[1]
        g = generating_sequence(S3)[0]
        with pytest.raises(homs.PassesDisagree, match=rf"^generator {g}, row 0: "):
            is_fuzzy_homomorphism(f)

    def test_harness_prints_a_fail_row(self, wrong_products):
        campaign = Campaign(groups=("S3",), mu_sources=("class",), suites=("Theorem 2.1",))
        (row,) = run_campaign(campaign)
        assert not row.verdict
        assert row.witness.startswith("PassesDisagree: generator ")


class TestKernel:
    def test_injective_map_has_trivial_kernel(self):
        mu = chain_strategy(Z4)
        f = lift_hom(tuple(Z4.elements), mu, Z4)
        assert tuple(sorted(kernel(f))) == (0,)

    def test_sign_lift_kernel_is_a3(self):
        mu2 = class_strategy(Z2)
        f = lift_hom(SIGN, mu2, S3)
        assert tuple(sorted(kernel(f))) == (0, 3, 4)

    def test_trivial_lift_kernel_is_everything(self):
        z1 = builtin_group("Z1")
        f = lift_hom((0,) * 6, class_strategy(z1), S3)
        assert tuple(sorted(kernel(f))) == tuple(S3.elements)

    def test_kernel_requires_homomorphism(self):
        bad = crisp_map(S3, Z2, (0, 1, 1, 1, 0, 1))
        with pytest.raises(NotHomomorphism):
            kernel(bad)


class TestTheorem21:
    def test_induced_map(self):
        mu = class_strategy(S3)
        for fmap in induced_family_raw(S3, mu):
            assert check_theorem_2_1(fmap) == (True, None)

    def test_crisp_automorphism_indicator(self):
        for sigma in crisp_automorphisms(S3):
            f = crisp_map(S3, S3, sigma)
            assert check_theorem_2_1(f) == (True, None)

    def test_graded_identity(self):
        mu = chain_strategy(Z4)
        f = lift_hom(tuple(Z4.elements), mu, Z4)
        assert check_theorem_2_1(f) == (True, None)
        assert f.grades[Z4.identity][Z4.identity] == 1


FACTS = ("images multiply", "identity pair has grade 1", "inverses map to inverses",
         "unit entries invert")


def theorem_2_1_facts(f):
    """The four facts of Theorem 2.1, read from the Fraction grades."""
    g, h = f.domain, f.codomain
    images = f.images
    return (
        all(
            images[g.table[x1][x2]] == h.table[images[x1]][images[x2]]
            for x1 in g.elements
            for x2 in g.elements
        ),
        f.grades[g.identity][h.identity] == 1,
        all(h.inverses[images[x]] == images[g.inverses[x]] for x in g.elements),
        all(
            f.grades[g.inverses[x]][h.inverses[y]] == 1
            for x in g.elements
            for y in h.elements
            if f.grades[x][y] == 1
        ),
    )


def theorem_2_1_oracle(f):
    """``check_theorem_2_1``'s verdict from the facts: the failed ones, named in order."""
    failed = [name for name, holds in zip(FACTS, theorem_2_1_facts(f)) if not holds]
    return (False, "failed " + ", ".join(failed)) if failed else (True, None)


def fails_fact(f, index):
    """Whether ``check_theorem_2_1``'s witness for f names fact ``index``."""
    return FACTS[index] in (check_theorem_2_1(f)[1] or "")


class TestTheorem21MatchesGrades:
    """Facts 2 and 4 read the rank rows; the grades are the oracle."""

    @given(data=st.data(), pair=st.sampled_from(ORACLE_PAIRS))
    @settings(max_examples=40, deadline=None)
    def test_valid_maps(self, data, pair):
        f = data.draw(st.sampled_from(lifted_homs(*pair)))
        assert check_theorem_2_1(f) == theorem_2_1_oracle(f) == (True, None)

    @given(data=st.data(), pair=st.sampled_from(ORACLE_PAIRS))
    @settings(max_examples=150, deadline=None)
    def test_perturbed_maps(self, data, pair):
        """Grades and skeleton drawn freely: rows may hold several grade-1
        entries or none, and the skeleton need not mark them."""
        domain, codomain = pair
        f = data.draw(st.sampled_from(lifted_homs(domain, codomain)))
        rows = [list(row) for row in f.grades]
        cells = st.tuples(st.sampled_from(domain.elements), st.sampled_from(codomain.elements))
        for x, y in data.draw(st.lists(cells, min_size=1, max_size=6)):
            rows[x][y] = data.draw(st.sampled_from(LOW_GRADES + [F(1)]))
        images = list(f.images)
        if data.draw(st.booleans()):
            images[data.draw(st.sampled_from(domain.elements))] = data.draw(
                st.sampled_from(codomain.elements)
            )
        perturbed = FuzzyMap(domain, codomain, tuple(map(tuple, rows)), tuple(images))
        assert check_theorem_2_1(perturbed) == theorem_2_1_oracle(perturbed)

    def test_no_grade_one_anywhere(self):
        f = FuzzyMap(S3, Z2, ((F(1, 2), F(0)),) * 6, SIGN)
        assert check_theorem_2_1(f) == theorem_2_1_oracle(f) == (False, f"failed {FACTS[1]}")


class TestTheorem21OneUnitPerRow:
    """Fact 4 reads a row's only grade-1 cell by ``row.index`` and scans every
    cell of a row with several or none; the grades are the oracle."""

    @pytest.mark.parametrize("token", DEFAULT_GROUPS + ("S4",))
    @pytest.mark.parametrize("mu", ["chain", "class"])
    def test_every_hom_sample(self, token, mu):
        ctx = _Instance(_Group(token), mu)
        assert ctx.mu_error is None and ctx.hom_samples
        for tag, f in ctx.hom_samples:
            assert check_theorem_2_1(f) == theorem_2_1_oracle(f) == (True, None), tag

    def test_units_away_from_the_images(self):
        """One grade-1 cell per row, never at the fuzzy image: read from the
        images, fact 4 would hold on Z4 and fail on S3 -> Z2."""
        half = F(1, 2)
        z4_rows = tuple(
            tuple(F(1) if y == (x + 1) % 4 else half for y in Z4.elements) for x in Z4.elements
        )
        on_z4 = FuzzyMap(Z4, Z4, z4_rows, tuple((x - 1) % 4 for x in Z4.elements))
        s3_rows = tuple((half, F(1)) if s == 0 else (F(1), half) for s in SIGN)
        on_s3 = FuzzyMap(S3, Z2, s3_rows, SIGN)
        assert check_theorem_2_1(on_z4) == theorem_2_1_oracle(on_z4)
        assert check_theorem_2_1(on_s3) == theorem_2_1_oracle(on_s3)
        assert (fails_fact(on_z4, 3), fails_fact(on_s3, 3)) == (True, False)

    @pytest.mark.parametrize("twice, inverse_row, holds", [
        (1, (F(1), F(1)), True), (3, (F(1), F(1, 2)), False),
    ])
    def test_a_row_with_two_units_and_a_row_with_none(self, twice, inverse_row, holds):
        """Row ``twice`` has two grade-1 cells and row 2 none; fact 4 holds
        exactly when row ``twice``'s inverse has both (1 and 3 invert to 1 and 4)."""
        rows = [list(row) for row in lift_hom(SIGN, fuzzy_subset(Z2, ["1", "1/2"]), S3).grades]
        rows[twice] = [F(1), F(1)]
        rows[S3.inverses[twice]] = list(inverse_row)
        rows[2] = [F(1, 2), F(1, 2)]
        f = FuzzyMap(S3, Z2, tuple(map(tuple, rows)), SIGN)
        assert check_theorem_2_1(f) == theorem_2_1_oracle(f)
        assert fails_fact(f, 3) is not holds


def all_mappings(domain, codomain):
    return itertools.product(codomain.elements, repeat=domain.order)


def first_pair_oracle(domain, codomain, phi):
    """The first (a, b) of the n^2 scan at which phi is not multiplicative."""
    return next(
        (
            (a, b)
            for a in domain.elements
            for b in domain.elements
            if phi[domain.table[a][b]] != codomain.table[phi[a]][phi[b]]
        ),
        None,
    )


# every mapping between these is checked; each domain needs two or more generators
EXHAUSTIVE_PAIRS = [
    ("V4", "Z2"), ("V4", "V4"), ("S3", "Z2"), ("D4", "Z2"), ("Q8", "Z2"), ("S3", "S3"),
]


class TestImagesMultiplyOverGenerators:
    """Fact 1 of Theorem 2.1 and lift_hom test phi over a generating set.

    The n^2 scan is the oracle."""

    @pytest.mark.parametrize("tokens", EXHAUSTIVE_PAIRS)
    def test_every_crisp_mapping(self, tokens):
        domain, codomain = map(builtin_group, tokens)
        assert len(generating_sequence(domain)) > 1
        rejected = 0
        for phi in all_mappings(domain, codomain):
            first = first_pair_oracle(domain, codomain, phi)
            f = crisp_map(domain, codomain, phi)
            assert fails_fact(f, 0) == (first is not None)
            assert check_theorem_2_1(f) == theorem_2_1_oracle(f)
            rejected += first is not None
        assert rejected

    @pytest.mark.parametrize("tokens", EXHAUSTIVE_PAIRS)
    def test_lift_names_the_first_pair(self, tokens):
        domain, codomain = map(builtin_group, tokens)
        mu = class_strategy(codomain)
        for phi in all_mappings(domain, codomain):
            first = first_pair_oracle(domain, codomain, phi)
            if first is None:
                assert lift_hom(phi, mu, domain).images == phi
            else:
                with pytest.raises(NotHomomorphism, match=re.escape(f"(a, b) = {first}") + "$"):
                    lift_hom(phi, mu, domain)

    def test_first_pair_can_lie_off_the_generators(self):
        phi = (0, 1, 1, 1, 0, 1)  # not multiplicative on S3 -> Z2
        first = first_pair_oracle(S3, Z2, phi)
        assert first is not None
        with pytest.raises(NotHomomorphism, match=re.escape(str(first))):
            lift_hom(phi, class_strategy(Z2), S3)


class TestTheorem22:
    def test_sign_lift(self):
        """Not one-one, and the kernel A3 is not trivial: the criterion holds."""
        f = lift_hom(SIGN, class_strategy(Z2), S3)
        assert tuple(sorted(kernel(f))) == (0, 3, 4)
        assert check_theorem_2_2(f) == (True, None)

    def test_induced_map(self):
        mu = class_strategy(S3)
        f = induced_family_raw(S3, mu)[1]
        assert tuple(sorted(kernel(f))) == (0,)
        assert check_theorem_2_2(f) == (True, None)

    def test_trivial_lift(self):
        z1 = builtin_group("Z1")
        f = lift_hom((0,) * 6, class_strategy(z1), S3)
        assert check_theorem_2_2(f) == (True, None)

    @pytest.mark.parametrize("name, witness", [
        ("S3", "lift:quot|N|=3: kernel=(0, 3, 4) normal=False one_one=False trivial=False"),
        ("D8", "lift:quot|N|=2: kernel=(0, 8) normal=False one_one=False trivial=False"),
    ])
    def test_a_seeded_normality_defect_names_the_kernel(self, monkeypatch, name, witness):
        monkeypatch.setattr(homs, "is_normal_subgroup", lambda g, k: len(k) == 1)
        campaign = Campaign(groups=(name,), mu_sources=("chain",), suites=("Theorem 2.2",))
        (row,) = run_campaign(campaign)
        assert (row.verdict, row.witness) == (False, witness)

    def test_the_witness_prints_the_kernel_sorted(self, monkeypatch):
        """A kernel is a frozenset, and ``frozenset([8, 0])`` iterates as (8, 0);
        r^4, element 8 of D8, is central, so only triviality fails."""
        d8 = builtin_group("D8")
        assert tuple(frozenset([8, 0])) == (8, 0)
        monkeypatch.setattr(homs, "kernel", lambda f: frozenset([8, 0]))
        f = lift_hom(tuple(d8.elements), class_strategy(d8), d8)
        assert check_theorem_2_2(f) == (
            False, "kernel=(0, 8) normal=True one_one=True trivial=False"
        )


class TestLift:
    def test_identity_lift_is_graded_identity_matrix(self):
        mu = chain_strategy(Z4)
        f = lift_hom(tuple(Z4.elements), mu, Z4)
        expected = [
            [mu.grades[Z4.table[Z4.inverses[x]][y]] for y in Z4.elements] for x in Z4.elements
        ]
        assert [list(r) for r in f.grades] == expected

    def test_sign_lift_grades(self):
        mu2 = fuzzy_subset(Z2, ["1", "1/2"])
        f = lift_hom(SIGN, mu2, S3)
        assert is_fuzzy_homomorphism(f).verdict
        assert all(f.grades[x][SIGN[x]] == 1 for x in S3.elements)
        assert all(f.grades[x][1 - SIGN[x]] == F(1, 2) for x in S3.elements)

    def test_conjugation_lift_matches_induced_matrix(self):
        mu = class_strategy(S3)
        family = induced_family_raw(S3, mu)
        for g in S3.elements:
            assert lift_hom(conjugations(S3)[g], mu, S3).grades == family[g].grades

    @pytest.mark.parametrize("token", DEFAULT_GROUPS + ("S4", "direct_product(Z2,Q8)"))
    @pytest.mark.parametrize("strategy", [chain_strategy, class_strategy], ids=["chain", "class"])
    def test_lifts_match_the_cell_by_cell_construction(self, token, strategy):
        """Every lifted automorphism and quotient lift picks the rows that
        ``indexed_map`` builds from mu'(phi(x)^-1 y) cell by cell."""
        group = builtin_group(token)
        cases = [(sigma, strategy(group)) for sigma in crisp_automorphisms(group)]
        for members in normal_subgroups(group):
            if len(members) > 1:
                quotient, coset_map = quotient_group(group, members)
                cases.append((coset_map, strategy(quotient)))
        for phi, mu in cases:
            ct, cinv = mu.group.table, mu.group.inverses
            rows = [ct[cinv[phi[x]]] for x in group.elements]
            old = indexed_map(group, mu.group, mu.encoding, rows)
            new = lift_hom(phi, mu, group)
            assert (new.images, new.encoding) == (old.images, old.encoding)

    def test_rejects_non_multiplicative_phi(self):
        with pytest.raises(NotHomomorphism):
            lift_hom((0, 1, 1, 1, 0, 1), class_strategy(Z2), S3)

    def test_rejects_invalid_mu(self):
        with pytest.raises(MuNotPointed):
            lift_hom((0, 1), flat_mu(Z2), Z2)
        bad = fuzzy_subset(S3, ["1", "1/4", "1/2", "1/2", "1/2", "1/2"])
        with pytest.raises(MuNotNormal):
            lift_hom(tuple(S3.elements), bad, S3)

    @pytest.mark.parametrize("grades, fault", [
        (["1", "1"], MuNotPointed), (["1/2", "1"], MuNotNormal), (["1/2", "1/4"], MuNotPointed),
    ], ids=["flat", "unit-off-the-identity", "no-unit"])
    def test_bad_phi_through_an_invalid_mu_names_the_first_pair(self, grades, fault):
        """phi is checked before mu is rejected, as when phi was checked first."""
        mu = fuzzy_subset(Z2, grades)
        phi = (0, 1, 1, 1, 0, 1)
        first = first_pair_oracle(S3, Z2, phi)
        with pytest.raises(NotHomomorphism, match=re.escape(f"(a, b) = {first}") + "$"):
            lift_hom(phi, mu, S3)
        with pytest.raises(fault):
            lift_hom(SIGN, mu, S3)

    def test_every_lift_goes_through_the_oracle(self, monkeypatch):
        """A seeded rejection surfaces for a multiplicative phi and names the
        first pair for any other."""
        witness = HomWitness(0, 0, 0, F(1), F(1, 2))
        monkeypatch.setattr(homs, "_failing_generator_pair", lambda f: (0, 0))
        monkeypatch.setattr(homs, "is_fuzzy_homomorphism", lambda f: HomCheckReport(False, witness))
        mu, phi = class_strategy(Z2), (0, 1, 1, 1, 0, 1)
        with pytest.raises(OracleRejected, match=re.escape(str(witness))):
            lift_hom(SIGN, mu, S3)
        first = first_pair_oracle(S3, Z2, phi)
        with pytest.raises(NotHomomorphism, match=re.escape(f"(a, b) = {first}") + "$"):
            lift_hom(phi, mu, S3)

    @pytest.mark.parametrize("token", ["Z4", "S3", "Q8"])
    def test_an_f_e_row_with_its_top_moved_is_rejected(self, token):
        """f_e's unit positions are found on its rank rows, not assumed from
        pointedness: a row whose grade-1 cell moved gives lifts with that
        unit, and the oracle rejects them."""
        group = builtin_group(token)
        mu = FuzzySubset(group, class_strategy(group).grades)
        values, rank_rows = mu.f_e.encoding
        rows = [list(row) for row in rank_rows]
        a, b = 1, group.order - 1
        rows[a][a], rows[a][b] = rows[a][b], rows[a][a]
        mu.__dict__["f_e"] = ranked_map(group, group, values, tuple(map(tuple, rows)))
        assert mu.f_e.images[a] == b
        identity = tuple(group.elements)
        with pytest.raises(OracleRejected):
            lift_hom(identity, mu, group)
        assert induced_family_raw(group, mu)[group.identity].images[a] == b


class TestClosureFacts:
    def test_composition_of_homs_is_hom(self):
        mu = class_strategy(S3)
        lifts = [lift_hom(s, mu, S3) for s in crisp_automorphisms(S3)]
        for f in lifts[:3]:
            for g in lifts[:3]:
                assert is_fuzzy_homomorphism(compose_maps(f, g)).verdict

    def test_inverse_of_bijective_hom_is_hom(self):
        mu = class_strategy(S3)
        for s in crisp_automorphisms(S3):
            f = lift_hom(s, mu, S3)
            assert is_fuzzy_homomorphism(inverse_map(f)).verdict

    def test_kernel_matches_skeleton_kernel(self):
        f = lift_hom(SIGN, class_strategy(Z2), S3)
        skeleton_kernel = tuple(x for x in S3.elements if f.images[x] == Z2.identity)
        assert tuple(sorted(kernel(f))) == skeleton_kernel
