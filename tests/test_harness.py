"""Campaign runner: determinism, coverage, precondition routing, ablations."""

import gc
import json
import os
import random
import re
import subprocess
import sys
from contextlib import nullcontext
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import pytest

from fuzzaut import automorphisms, groups, harness, homs, maps, subsets
from fuzzaut.cli import main as cli_main
from fuzzaut.errors import DERIVED_CACHES, FuzzautError, clear_derived
from fuzzaut.grades import rank_grades
from fuzzaut.harness import (
    ABLATION_TOKENS,
    DEFAULT_GROUPS,
    STATEMENT_IDS,
    STATEMENTS,
    SUITE_GROUPS,
    Campaign,
    ConfigInvalid,
    UnknownToken,
    _Group,
    _Instance,
    ablation,
    campaign_report,
    default_campaign,
    run_campaign,
)
from fuzzaut.groups import (
    builtin_group,
    center,
    conjugations,
    crisp_automorphisms,
    normal_subgroups,
)
from fuzzaut.homs import lift_hom
from fuzzaut.io import dumps, load_group, mu_to_json, save
from fuzzaut.subsets import MuNotNormal, fuzzy_subset, mu_from_strategy


SMALL = Campaign(groups=("Z4", "S3"))
# class-asymmetric grades on Q8: a fuzzy subgroup inequality breaks
BAD_Q8_MU = {"group": "Q8", "grades": ["1", "1/2", "1/4", "1/4", "1/2", "1/4", "1/4", "1/4"]}
ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "bench" / "expected"


class TestCatalog:
    def test_every_statement_has_a_description(self):
        assert set(STATEMENT_IDS) == set(STATEMENTS)
        assert all(STATEMENTS[s] for s in STATEMENT_IDS)

    def test_default_groups(self):
        assert "S3" in DEFAULT_GROUPS and "Q8" in DEFAULT_GROUPS


class TestRunCampaign:
    def test_small_campaign_all_pass(self):
        results = run_campaign(SMALL)
        assert results and all(r.verdict for r in results)

    def test_coverage_is_the_whole_catalog(self):
        results = run_campaign(SMALL)
        assert {r.statement for r in results} == set(STATEMENT_IDS)

    def test_results_are_sorted(self):
        results = run_campaign(SMALL)
        keys = [(r.statement, r.instance) for r in results]
        assert keys == sorted(keys)

    def test_empty_group_list_gives_empty_results(self):
        assert run_campaign(Campaign(groups=())) == []

    def test_identical_config_identical_results(self):
        a = run_campaign(SMALL)
        b = run_campaign(SMALL)
        assert [(r.statement, r.instance, r.verdict, r.witness) for r in a] == [
            (r.statement, r.instance, r.verdict, r.witness) for r in b
        ]

    def test_stable_report_bytes(self):
        a = dumps(campaign_report(SMALL, run_campaign(SMALL)))
        b = dumps(campaign_report(SMALL, run_campaign(SMALL)))
        assert a == b

    @pytest.mark.parametrize("campaign, drop, error", [
        (SMALL, None, None),
        (Campaign(groups=("S3", "D4")), "normal-mu", None),
        (Campaign(groups=("Z4",), suites=("Lemma 9.9",)), None, ConfigInvalid),
        (Campaign(groups=("Z4", "Z99")), None, groups.UnknownGroup),
        (Campaign(groups=("Q8",), mu_sources=("class", "file:bad_mu.json")), None, MuNotNormal),
    ], ids=["campaign", "ablation", "unknown statement", "unknown group", "bad mu file"])
    def test_no_derived_cache_outlives_a_campaign(self, campaign, drop, error, tmp_path,
                                                  monkeypatch):
        """Every derived cache is empty when a campaign or an ablation returns
        or raises, what the caller warmed before it included."""
        monkeypatch.chdir(tmp_path)
        save("bad_mu.json", BAD_Q8_MU)
        subsets.chain_strategy(builtin_group("D4"))
        with pytest.raises(error) if error else nullcontext():
            run_campaign(campaign) if drop is None else ablation(campaign, drop)
        assert {cached.cache_info().currsize for cached in DERIVED_CACHES} == {0}

    def test_every_library_cache_but_the_inputs_is_derived(self):
        found = {value for name, module in list(sys.modules.items()) if name.startswith("fuzzaut.")
                 for value in vars(module).values() if hasattr(value, "cache_clear")}
        inputs = {groups.builtin_group}
        assert found - set(DERIVED_CACHES) == inputs


@pytest.fixture
def collector_off():
    """The cyclic collector off for one test, and back as it was after it."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestCollectorPause:
    """A campaign or an ablation runs with the cyclic collector paused, and puts
    back the caller's ``gc.isenabled()``; pausing frees nothing late, because a
    campaign makes no reference cycles."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("campaign, drop, error", [
        (SMALL, None, None),
        (SMALL, "pointed", None),
        (Campaign(groups=("S3", "D4")), "normal-mu", None),
        (Campaign(groups=("Z4",), suites=("Lemma 9.9",)), None, ConfigInvalid),
        (Campaign(groups=("Z4", "Z99")), None, groups.UnknownGroup),
        (Campaign(groups=("Z4", "Z99")), "normal-mu", groups.UnknownGroup),
    ], ids=["campaign", "pointed", "normal-mu", "unknown statement", "unknown group",
            "ablation of an unknown group"])
    def test_callers_collector_state_is_put_back(self, monkeypatch, campaign, drop, error,
                                                 enabled):
        row, during = harness._row, []

        def watched(*args):
            during.append(gc.isenabled())
            return row(*args)

        monkeypatch.setattr(harness, "_row", watched)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            with pytest.raises(error) if error else nullcontext():
                run_campaign(campaign) if drop is None else ablation(campaign, drop)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        assert not any(during) and (bool(during) is (error is None))

    @pytest.mark.parametrize("campaign, drop", [
        (default_campaign(), None),
        (Campaign(groups=("S4", "D8", "direct_product(Z2,Q8)")), None),
        (default_campaign(), "pointed"),
        (default_campaign(), "normal-mu"),
        (Campaign(groups=("Z4", "Z99")), None),
    ], ids=["default", "S4, D8 and Z2xQ8", "pointed", "normal-mu", "unknown group"])
    def test_a_campaign_leaves_no_cycles(self, collector_off, campaign, drop):
        """With the collector off throughout, ``gc.collect()`` finds nothing
        unreachable after the run: everything it made was freed by reference
        counting."""
        gc.collect()
        with pytest.raises(groups.UnknownGroup) if "Z99" in campaign.groups else nullcontext():
            run_campaign(campaign) if drop is None else ablation(campaign, drop)
        assert gc.collect() == 0


def rebind_everywhere(monkeypatch, module, name, replacement):
    """Bind ``replacement`` in place of ``module.name`` at every fuzzaut site that binds it."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "fuzzaut" or mod_name.startswith("fuzzaut."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, replacement)


class TestWorkCounts:
    def test_default_campaign_reuses_each_codomains_row_products(self, monkeypatch):
        """Rows run one instance at a time, so an instance's codomains keep
        their row-product memos from statement to statement (1,593 products
        when each statement ran over every instance in turn, 791 when each
        product missing from the memo was computed rather than translated
        from a core, 63 when each derived group with a campaign group's
        table kept a memo of its own)."""
        calls = self.calls_to(monkeypatch, homs, "_row_product")
        run_campaign(default_campaign())
        assert 0 < len(calls) <= 28

    @staticmethod
    def calls_to(monkeypatch, module, name):
        """Count the calls of ``module.name`` at every fuzzaut site that binds it,
        from empty derived caches."""
        original, calls = getattr(module, name), []

        def counted(*args):
            calls.append(None)
            return original(*args)

        rebind_everywhere(monkeypatch, module, name, counted)
        clear_derived()
        return calls

    def test_default_campaign_builds_each_groups_quotient_lifts_once(self, monkeypatch):
        """The quotient lifts read no mu, so each group builds its 28 lifts
        once for both mu sources; zeta adds one center quotient per group
        (12) and the lifted automorphisms 112 lifts, one set per distinct
        (group, mu) (80 and 188 when each instance built its own, 52 when
        zeta built a center quotient per instance, 160 when the six groups
        whose chain and class mu agree lifted their automorphisms twice)."""
        quotients = self.calls_to(monkeypatch, groups, "quotient_group")
        lifts = self.calls_to(monkeypatch, homs, "lift_hom")
        run_campaign(default_campaign())
        assert (len(quotients), len(lifts)) == (40, 140)

    @pytest.mark.parametrize("name, passes, checks, products", [
        ("s4-hom.json", 28, 127, range(5, 6)),
        ("default-matrix.json", 183, 1090, range(28, 29)),
    ])
    def test_each_distinct_map_takes_one_generator_pass(
        self, monkeypatch, name, passes, checks, products
    ):
        """A passing map's key is kept on its codomain, so only a map not seen
        before takes a generator pass (each of the 251 and 952 checks took one
        when nothing was kept).  ``homs.generating_sequence`` is read once per
        pass and not on a held check, which makes it the pass counter: 28 and
        183 passes (196 on the default matrix when each derived group with a
        campaign group's table was an object of its own, whose codomain kept
        nothing of the campaign group's).  A product missing from the memo is
        translated from the core of its centred rows, and only a new core is
        computed: 5 and 28 products (63 on the default matrix when each such
        derived group computed its own cores; 351 and 791 when every missing
        product was computed).  The suites
        run once per distinct (group, mu), so S4, whose chain and class mu
        agree, makes 127 checks and the default matrix 1,090 (251 and 1,276
        when each mu source ran them).  Lemma 3.9 checks every
        (sample, label) conjugate, and each of those checks is a held key.
        A check is a call of the oracle's verdict,
        ``homs._failing_generator_pair``, which ``is_fuzzy_homomorphism``
        and ``lift_hom`` both make."""
        passes_run, generating_sequence = [], homs.generating_sequence

        def counted(group):
            passes_run.append(None)
            return generating_sequence(group)

        monkeypatch.setattr(homs, "generating_sequence", counted)
        hom_checks = self.calls_to(monkeypatch, homs, "_failing_generator_pair")
        row_products = self.calls_to(monkeypatch, homs, "_row_product")
        run_campaign(recorded_campaign(name))
        assert (len(passes_run), len(hom_checks)) == (passes, checks)
        assert len(row_products) in products

    @pytest.mark.parametrize("name, translated, checks, cores", [
        ("s4-hom.json", 111, 127, 5),
        (None, 351, 1090, 28),
    ], ids=["s4-hom", "default"])
    def test_later_lifts_read_the_products_of_the_first(
        self, monkeypatch, name, translated, checks, cores
    ):
        """A pass takes its generators from the rows that the last pass over
        its domain took them from, when they generate it, so every lift
        through a mu after the first reads the products that the first left
        in the memo: at most 111 products translated on s4-hom and 351 on the
        default campaign (475 and 63 cores on the default campaign when each
        derived group with a campaign group's table kept a memo of its own;
        351 and 790 when every pass took ``generating_sequence``).  The
        oracle's verdicts stay as they were."""
        products = self.calls_to(monkeypatch, homs, "_translated_product")
        hom_checks = self.calls_to(monkeypatch, homs, "_failing_generator_pair")
        row_products = self.calls_to(monkeypatch, homs, "_row_product")
        run_campaign(recorded_campaign(name) if name else default_campaign())
        assert 0 < len(products) <= translated
        assert (len(hom_checks), len(row_products)) == (checks, cores)

    @pytest.mark.parametrize("suites", [("Lemma 3.7", "Lemma 4.4"), ("Lemma 3.7",)])
    @pytest.mark.parametrize("tokens, composites", [(DEFAULT_GROUPS, 113), (("S4",), 576)])
    def test_lemmas_3_7_and_4_4_compose_each_pair_of_representatives_once(
        self, monkeypatch, suites, tokens, composites
    ):
        """Both lemmas read one table of the r^2 pair composites of an
        instance's representatives: sum r^2 = 113 over the distinct
        (group, mu) of the default groups and 576 on S4, with Lemma 4.4 or
        without it (154 and 1,152 when each mu source ran its own instance,
        2,426 and 85,248 when, besides, Lemma 4.4 made r^2 + 3r^3
        compositions of its own)."""
        composed = self.calls_to(monkeypatch, maps, "compose_maps")
        rows = run_campaign(Campaign(groups=tokens, suites=suites))
        assert rows and all(r.verdict for r in rows)
        assert len(composed) == composites

    @pytest.mark.parametrize("name, scans, pairs", [
        ("s4-hom.json", 5, 51),
        ("default-matrix.json", 57, 264),
    ])
    def test_unit_entries_are_found_once_per_mu(self, monkeypatch, name, scans, pairs):
        """Lifts and the induced family read their unit entries off the one
        scan that built ``mu.f_e``, and ``lift_hom`` names a pair of phi only
        after the oracle rejects.  A quotient with a campaign group's table is
        that group, so its canonical mu is scanned once: 76 scans on the
        default matrix when each quotient was an object of its own.  Sources
        with equal mu share one instance:
        7 and 94 scans, and 78 and 302 calls, when each source ran its own;
        101 and 432 ``ranked_map`` scans, and 129 and 462
        ``first_non_multiplicative`` calls, when besides every lift and
        every family map scanned its rows and every lift checked phi first."""
        scanned = self.calls_to(monkeypatch, maps, "ranked_map")
        multiplied = self.calls_to(monkeypatch, groups, "first_non_multiplicative")
        rows = run_campaign(recorded_campaign(name))
        assert rows and all(r.verdict for r in rows)
        assert (len(scanned), len(multiplied)) == (scans, pairs)

    def test_s4_hom_campaign_builds_its_quotients_once(self, monkeypatch):
        """S4's three non-trivial normal subgroups, once for chain and class mu
        (6 when each instance built its own)."""
        quotients = self.calls_to(monkeypatch, groups, "quotient_group")
        run_campaign(Campaign(groups=("S4",), suites=SUITE_GROUPS["hom"]))
        assert len(quotients) == 3

    @pytest.mark.parametrize("name, transposes", [("s4-hom.json", 24), (None, 182)],
                             ids=["s4-hom", "default"])
    def test_each_sample_is_transposed_once_for_lemmas_3_4_3_5_3_6_and_3_9(
        self, monkeypatch, name, transposes
    ):
        """Lemmas 3.4, 3.5, 3.6 and 3.9 read an instance's one transpose per
        sample (``aut_transposes``); Lemma 3.8 transposes in its checker: 24
        and 182 transposes (24 and 294 when Lemma 3.4 transposed in its
        checker as well, 48 and 518 when each lemma transposed each
        sample)."""
        transposed = self.calls_to(monkeypatch, maps, "inverse_map")
        run_campaign(recorded_campaign(name) if name else default_campaign())
        assert len(transposed) == transposes

    def test_default_campaign_work_stays_as_it_was(self, monkeypatch):
        """The campaign's compositions, oracle verdicts, automorphism checks,
        translated products, cores and ``make_group`` calls, and the
        codomain tables it builds, pinned.  Each distinct table derived in
        the campaign is validated once and has one group object, a campaign
        group's where there is one (``groups.derived_group``): 17
        ``make_group`` calls for the 88 quotient, opposite and class tables,
        15 codomain tables, 351 translated products and 28 cores (88, 46,
        475 and 63 when every derived table made a group of its own).
        ``homs._pass_generators`` runs ``homs.closure`` on each pass that
        finds the last pass's generator rows: 119 calls (60 when each
        closure verdict was kept on its codomain)."""
        for token in DEFAULT_GROUPS:  # builtin_group's own cache holds them past the campaign
            builtin_group(token)
        counted = [
            self.calls_to(monkeypatch, module, name) for module, name in (
                (maps, "compose_maps"), (homs, "_failing_generator_pair"),
                (automorphisms, "check_automorphism"), (homs, "_translated_product"),
                (homs, "_row_product"), (groups, "make_group"),
            )
        ]
        closure, closures = homs.closure, []
        monkeypatch.setattr(homs, "closure", lambda *args: closures.append(None) or closure(*args))
        tables, init = [], homs._RowTables.__init__
        monkeypatch.setattr(homs._RowTables, "__init__",
                            lambda self, codomain: tables.append(None) or init(self, codomain))
        run_campaign(default_campaign())
        assert list(map(len, counted)) == [3749, 1090, 558, 351, 28, 17]
        assert (len(tables), len(closures)) == (15, 119)


class TestOneGroupPerTable:
    """Each table derived in a campaign (quotients, opposite groups, the Aut_F
    and Inn_F class tables) is validated once and has one group object, a
    campaign group's where there is one (``groups.derived_group``)."""

    @pytest.mark.parametrize("tokens, drop", [
        (DEFAULT_GROUPS, None), (("S4",), None), (("D8",), None),
        (("direct_product(Z2,Q8)",), None), (DEFAULT_GROUPS, "pointed"), (DEFAULT_GROUPS, "normal-mu"),
    ], ids=["default", "S4", "D8", "Z2xQ8", "ablate-pointed", "ablate-normal-mu"])
    def test_reports_are_those_of_a_new_group_per_derived_table(self, monkeypatch, tokens, drop):
        """The oracle is the literal twin that validates and builds a new group
        on every construction, as ``make_group`` did before the store."""
        def report():
            campaign = Campaign(groups=tokens)
            return dumps(campaign_report(campaign, ablation(campaign, drop), drop))

        shared = report()
        rebind_everywhere(monkeypatch, groups, "derived_group",
                          lambda table, name: groups.make_group(table, name))
        assert report() == shared

    def test_campaign_groups_keep_their_objects_and_descriptors(self, monkeypatch, tmp_path):
        """Z1 and S1 share the table [[0]], and C2, a file group, has Z2's table:
        each campaign group stays its own object, under its own name, and its
        rows are those of a campaign over it alone.  The quotients of Q8 of
        order 2 are Z2, the group registered first with that table."""
        path = tmp_path / "c2.json"
        save(path, {"name": "C2", "order": 2, "table": [[0, 1], [1, 0]]})
        tokens = ("Z1", "S1", "Z2", f"file:{path}", "Q8")
        resolved = []
        register = harness.register_group
        monkeypatch.setattr(harness, "register_group",
                            lambda group: resolved.append(group) or register(group))
        rows = run_campaign(Campaign(groups=tokens))
        alone = sorted((row for token in tokens for row in run_campaign(Campaign(groups=(token,)))),
                       key=lambda r: (r.statement, r.instance))
        assert rows == alone and all(row.verdict for row in rows)
        assert {row.instance.split("|")[0] for row in rows} == {"Z1", "S1", "Z2", "C2", "Q8"}
        assert [g.name for g in resolved[:5]] == ["Z1", "S1", "Z2", "C2", "Q8"]
        assert resolved[0] is builtin_group("Z1") and resolved[1] is builtin_group("S1")
        z2, c2 = builtin_group("Z2"), load_group(path)
        try:
            register(z2)
            register(c2)
            assert groups.quotient_group(builtin_group("Q8"), (0, 1, 2, 3))[0] is z2
            assert groups.derived_group(c2.table, "C2") is z2
        finally:
            clear_derived()

    @pytest.mark.parametrize("bad_token", [None, "file:missing.json", "Z99"])
    def test_the_store_is_empty_after_a_campaign(self, monkeypatch, tmp_path, bad_token):
        """Whether the campaign returns or raises while resolving its groups,
        after Z2 was registered, nothing validated outlives it."""
        monkeypatch.chdir(tmp_path)
        registered = []
        register = harness.register_group
        monkeypatch.setattr(harness, "register_group",
                            lambda group: registered.append(group) or register(group))
        campaign = Campaign(groups=("Z2", "Q8") + ((bad_token,) if bad_token else ()))
        with pytest.raises(FuzzautError) if bad_token else nullcontext():
            run_campaign(campaign)
        assert registered[0] is builtin_group("Z2")
        assert groups._group_store.cache_info().currsize == 0

    @pytest.mark.parametrize("tokens", [DEFAULT_GROUPS, ("S4", "D8", "direct_product(Z2,Q8)")],
                             ids=["default", "S4-D8-Z2xQ8"])
    def test_each_derived_table_is_validated_once(self, monkeypatch, tokens):
        """Every table derived in the campaign goes through ``make_group``, a
        campaign group's table too (Q8/N4 has Z2's, S4/Z(S4) S4's), and none
        of them twice."""
        for token in tokens:  # builtin_group's own cache holds them past the campaign
            builtin_group(token)
        derived, validated = [], []
        derive, make = groups.derived_group, groups.make_group
        rebind_everywhere(monkeypatch, groups, "derived_group",
                          lambda table, name: derived.append(table) or derive(table, name))
        rebind_everywhere(monkeypatch, groups, "make_group",
                          lambda table, name=None: validated.append(table) or make(table, name))
        run_campaign(Campaign(groups=tokens))
        tables = {tuple(map(tuple, table)) for table in derived}
        assert len(validated) == len(tables) < len(derived)
        assert set(validated) == tables
        assert tables & {builtin_group(token).table for token in tokens}


class TestOneInstancePerMu:
    """Sources whose mu resolve equal share one instance, which runs the
    suites once; each source still gets its own rows."""

    @pytest.mark.parametrize("token", DEFAULT_GROUPS + ("S4", "D8"))
    def test_rows_are_those_of_each_source_run_alone(self, token):
        """Each single-source campaign builds its own instance and clears its
        caches, so it is the oracle of the merged campaign's rows."""
        alone = [row for mu in ("chain", "class")
                 for row in run_campaign(Campaign(groups=(token,), mu_sources=(mu,)))]
        alone.sort(key=lambda r: (r.statement, r.instance))
        merged = run_campaign(Campaign(groups=(token,)))
        fields = attrgetter("statement", "instance", "verdict", "witness", "expected_failure")
        assert list(map(fields, merged)) == list(map(fields, alone))

    @staticmethod
    def lifts(monkeypatch, token, *sources):
        """``lift_hom`` calls of the hom suites on ``token``, one count per
        tuple of mu sources."""
        calls, counts = TestWorkCounts.calls_to(monkeypatch, homs, "lift_hom"), []
        for mu_sources in sources:
            calls.clear()
            rows = run_campaign(Campaign(groups=(token,), mu_sources=mu_sources,
                                         suites=SUITE_GROUPS["hom"]))
            assert rows and all(r.verdict for r in rows)
            counts.append(len(calls))
        return counts

    def test_a_file_mu_with_chains_grades_merges_with_chain(self, monkeypatch, tmp_path):
        path = tmp_path / "mu.json"
        save(path, mu_to_json(subsets.chain_strategy(builtin_group("S4"))))
        source = f"file:{path}"
        both, alone = self.lifts(monkeypatch, "S4", ("chain", source), ("chain",))
        assert both == alone
        rows = run_campaign(Campaign(groups=("S4",), mu_sources=("chain", source)))
        chain = [r for r in rows if r.instance == "S4|mu=chain"]
        copied = [r for r in rows if r.instance == f"S4|mu={source}"]
        assert len(copied) == len(chain) == len(STATEMENT_IDS)
        assert [(r.statement, r.verdict, r.witness) for r in copied] == [
            (r.statement, r.verdict, r.witness) for r in chain
        ]
        assert {r.ms for r in copied} == {0}

    def test_q8s_distinct_chain_and_class_mu_keep_two_instances(self, monkeypatch):
        q8 = builtin_group("Q8")
        assert subsets.chain_strategy(q8) != subsets.class_strategy(q8)
        both, alone = self.lifts(monkeypatch, "Q8", ("chain", "class"), ("chain",))
        assert both == alone + len(crisp_automorphisms(q8))

    def test_one_changed_grade_makes_two_instances(self, monkeypatch):
        """S4's chain and class mu agree; halving chain mu's least grade keeps
        a valid mu that differs, so class gets its own instance again."""
        s4 = builtin_group("S4")
        same, _ = self.lifts(monkeypatch, "S4", ("chain", "class"), ("chain",))

        def regraded_chain(group):
            mu = subsets.chain_strategy(group)
            low = min(mu.grades)
            return fuzzy_subset(group, [v / 2 if v == low else v for v in mu.grades])

        monkeypatch.setitem(subsets._STRATEGIES, "class", regraded_chain)
        both, alone = self.lifts(monkeypatch, "S4", ("chain", "class"), ("chain",))
        assert same == alone and both == alone + len(crisp_automorphisms(s4))


class TestPreconditionRouting:
    @pytest.fixture
    def corrupted_mu_file(self, tmp_path):
        path = tmp_path / "bad_mu.json"
        save(path, BAD_Q8_MU)
        return f"file:{path}"

    def test_corrupted_mu_raises_before_any_suite(self, corrupted_mu_file, monkeypatch):
        """A mu that is no normal fuzzy subgroup is bad input, not a failed
        law: the campaign raises before any row, the good source's included."""
        def no_row(*args):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(harness, "_row", no_row)
        campaign = Campaign(groups=("Q8",), mu_sources=("class", corrupted_mu_file))
        with pytest.raises(MuNotNormal, match=r"^mu\(x\*y\) = 1/4 < 1/2 = mu\(x\)\^mu\(y\)"):
            run_campaign(campaign)

    def test_a_defect_building_mu_fails_every_row_of_its_instance(self, monkeypatch):
        """A ``RuntimeError`` while mu is built is a library defect, not bad
        input: it fails all 21 rows of the instance, none skipped, and the
        other instances run as before."""
        clean = run_campaign(SMALL)

        def raiser(group):
            raise RuntimeError(f"seeded defect on {group.name}")

        monkeypatch.setitem(subsets._STRATEGIES, "chain", raiser)
        rows = run_campaign(SMALL)
        for name in ("Z4", "S3"):
            chain = [r for r in rows if r.instance == f"{name}|mu=chain"]
            assert [r.statement for r in chain] == sorted(STATEMENT_IDS)
            assert {(r.verdict, r.witness) for r in chain} == {
                (False, f"RuntimeError: seeded defect on {name}")
            }
        class_rows = [r for r in rows if r.instance.endswith("|mu=class")]
        assert class_rows == [r for r in clean if r.instance.endswith("|mu=class")]
        assert len(class_rows) == 2 * len(STATEMENT_IDS)


class TestAblation:
    def test_drop_nothing_is_run_campaign(self):
        assert ablation(SMALL, None) == run_campaign(SMALL)

    def test_unknown_token(self):
        with pytest.raises(UnknownToken):
            ablation(SMALL, "associativity")

    def test_tokens_are_published(self):
        assert ABLATION_TOKENS == ("pointed", "normal-mu")

    def test_pointed_ablation_records_expected_failure(self):
        rows = ablation(Campaign(groups=("Z2",)), "pointed")
        assert len(rows) == 1
        row = rows[0]
        assert row.verdict and row.expected_failure
        assert "MultipleUnitEntries" in row.witness

    def test_pointed_ablation_skips_the_trivial_group(self):
        """Z1's flat mu is already pointed, so dropping pointedness can break
        nothing there: Z1 gets no row, as groups without a non-normal
        subgroup get no normal-mu row."""
        assert ablation(Campaign(groups=("Z1",)), "pointed") == []
        rows = ablation(Campaign(groups=("Z1", "Z2")), "pointed")
        assert [(r.instance, r.verdict) for r in rows] == [("Z2|mu=flat", True)]

    def test_normality_ablation_finds_counterexample(self):
        rows = ablation(Campaign(groups=("S3",)), "normal-mu")
        assert len(rows) == 1
        row = rows[0]
        assert row.verdict and row.expected_failure
        assert "counterexample" in row.witness

    def test_normality_ablation_skips_groups_without_non_normal_subgroups(self):
        # every subgroup of Q8 and of abelian groups is normal
        assert ablation(Campaign(groups=("Z6", "Q8")), "normal-mu") == []

    def test_a_library_error_in_a_probe_fails_its_row(self, monkeypatch):
        def broken(mu, g):
            raise FuzzautError("seeded")

        monkeypatch.setattr(harness, "induced_map", broken)
        (row,) = ablation(Campaign(groups=("Z2",)), "pointed")
        assert (row.verdict, row.witness, row.expected_failure) == (
            False, "FuzzautError: seeded", True
        )

    def test_a_failing_generator_self_check_fails_its_row(self, monkeypatch):
        """gen_mu_chain certifies its mu by raising, so the probe's row fails."""
        monkeypatch.setattr(subsets, "is_pointed", lambda mu: False)
        (row,) = ablation(Campaign(groups=("S3",)), "normal-mu")
        assert not row.verdict and row.expected_failure
        assert row.witness.startswith("RuntimeError: chain construction produced an invalid ")

    def test_ablation_is_deterministic(self):
        campaign = Campaign(groups=("Z2", "S3", "D4"))
        for token in ABLATION_TOKENS:
            assert ablation(campaign, token) == ablation(campaign, token)


class TestReport:
    def test_schema_keys(self):
        results = run_campaign(Campaign(groups=("Z4",)))
        report = campaign_report(Campaign(groups=("Z4",)), results)
        assert set(report) == {"campaign", "results", "summary"}
        assert set(report["summary"]) == {"pass", "fail"}
        for row in report["results"]:
            assert set(row) == {"statement", "instance", "verdict", "witness", "ms", "expected"}

    def test_summary_counts(self):
        campaign = Campaign(groups=("Z4", "S3"))
        results = run_campaign(campaign)
        report = campaign_report(campaign, results)
        assert report["summary"]["pass"] == len(results)
        assert report["summary"]["fail"] == 0

    def test_json_round_trip_and_key_order(self):
        campaign = Campaign(groups=("Z4",))
        text = dumps(campaign_report(campaign, run_campaign(campaign)))
        parsed = json.loads(text)
        assert dumps(parsed) == text  # sorted keys make dumping idempotent


def recorded_campaign(name):
    """The campaign of a report recorded in bench/expected/."""
    block = json.loads((RECORDED / name).read_text(encoding="utf-8"))["campaign"]
    return Campaign(
        groups=tuple(block["groups"]),
        mu_sources=tuple(block["mu"]),
        suites=tuple(block["suites"]),
        seed=block["seed"],
    )


class TestRecordedReports:
    """The reports recorded in bench/expected/ are reproduced byte for byte."""

    @pytest.mark.parametrize("name", ["default-matrix.json", "s4-hom.json"])
    def test_campaign_report_is_byte_identical(self, name):
        expected = (RECORDED / name).read_text(encoding="utf-8")
        block = json.loads(expected)["campaign"]
        assert block["ablate"] is None
        campaign = Campaign(
            groups=tuple(block["groups"]),
            mu_sources=tuple(block["mu"]),
            suites=tuple(block["suites"]),
            seed=block["seed"],
        )
        assert dumps(campaign_report(campaign, run_campaign(campaign))) == expected

    @pytest.mark.parametrize("workload", ["default-matrix", "s4-hom"])
    def test_benchmark_worker_writes_the_recorded_report(self, tmp_path, workload):
        """The benchmark's untraced pass calls the harness by name; a rename
        there must fail here, not only as a failed benchmark run."""
        report = tmp_path / "report.json"
        done = subprocess.run(
            [sys.executable, "bench/worker.py", "--workload", workload, "--mode", "run",
             "--out", str(tmp_path / "pass.json"), "--report", str(report)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert report.read_bytes() == (RECORDED / f"{workload}.json").read_bytes()

    def test_traced_benchmark_worker_writes_the_recorded_report(self, tmp_path):
        """The traced pass wraps every span target; its report must not change,
        and its hom-check and lift counts stay comparable across changes.  A
        lift takes the oracle's verdict (``homs._failing_generator_pair``)
        inside its ``lift_hom`` span, so the 27 lifts' checks are not among
        the 100 ``is_fuzzy_homomorphism`` calls; together they are the 127
        checks of ``TestWorkCounts``.  Chain and class mu agree on S4, so
        one instance runs (51 lifts and 200 calls when each source ran)."""
        report, out = tmp_path / "report.json", tmp_path / "pass.json"
        done = subprocess.run(
            [sys.executable, "bench/worker.py", "--workload", "s4-hom", "--mode", "run",
             "--trace", "--out", str(out), "--report", str(report)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert report.read_bytes() == (RECORDED / "s4-hom.json").read_bytes()
        layers = json.loads(out.read_text(encoding="utf-8"))["layers"]
        assert layers["homs.is_fuzzy_homomorphism.calls"] == 100
        assert layers["homs.lift_hom.calls"] == 27


def relabeled(group):
    """The group's table under a seeded relabeling that moves the identity off 0."""
    labels = list(group.elements)
    random.Random(1).shuffle(labels)
    if labels[group.identity] == 0:
        labels = labels[1:] + labels[:1]
    table = [[0] * group.order for _ in group.elements]
    for a in group.elements:
        for b in group.elements:
            table[labels[a]][labels[b]] = labels[group.table[a][b]]
    return {"name": f"{group.name}~", "order": group.order, "table": table}


@pytest.mark.parametrize("token", ["S3", "D4", "Q8", "Z6", "S4"])
def test_relabeled_groups_get_the_builtins_verdicts(token, tmp_path):
    """Every builtin puts its identity at 0; a file group need not, and no
    law's verdict may depend on where the identity sits."""
    path = tmp_path / f"{token}.json"
    save(path, relabeled(builtin_group(token)))
    assert load_group(path).identity != 0

    def verdicts(group_token):
        rows = run_campaign(Campaign(groups=(group_token,)))
        return {(r.statement, r.instance.split("|")[1]): r.verdict for r in rows}

    expected = verdicts(token)
    assert len(expected) == 2 * len(STATEMENT_IDS)
    assert verdicts(f"file:{path}") == expected


PROPER_FRACTION = re.compile(r"\b(\d+)/(\d+)\b")


def squared_grades(witness):
    """The witness with every grade in it squared: 0 and 1 print as integers
    and stay fixed, the other grades print as a/b."""
    if witness is None:
        return None
    return PROPER_FRACTION.sub(lambda m: str(Fraction(int(m[1]), int(m[2])) ** 2), witness)


def regraded(mu):
    return fuzzy_subset(mu.group, [v * v for v in mu.grades])


def test_regraded_invalid_mu_gets_the_squared_witnesses(tmp_path):
    """A mu that is no fuzzy subgroup is refused with a witness in grades."""
    def refusal(mu, path):
        save(path, mu_to_json(mu))
        with pytest.raises(FuzzautError) as err:
            run_campaign(Campaign(groups=("S3",), mu_sources=(f"file:{path}",)))
        return f"{type(err.value).__name__}: {err.value}"

    mu = fuzzy_subset(builtin_group("S3"), ["1", "1/2", "1/3", "1/2", "1/3", "1/4"])
    plain = refusal(mu, tmp_path / "mu.json")
    squared = refusal(regraded(mu), tmp_path / "squared.json")
    assert PROPER_FRACTION.search(plain)
    assert squared == squared_grades(plain)


# strictly increasing maps of [0, 1] into itself that fix 1
REGRADINGS = {
    "v^2": lambda v: v * v,
    "v/(2-v)": lambda v: v / (2 - v),
    "(1+v)/2": lambda v: (1 + v) / 2,
}


@pytest.mark.parametrize("token", DEFAULT_GROUPS + ("S4", "D8"))
def test_every_regrading_keeps_every_verdict(token, tmp_path):
    """Each statement reads grades through min, sup, equality and the grade 1
    alone, so mapping every grade of mu through a strictly increasing tau
    with tau(1) = 1 keeps its ranks, and every verdict with them.  Each
    regraded chain and class mu is loaded as a file mu, in one campaign with
    the unregraded sources."""
    group, sources = builtin_group(token), {}
    for strategy in ("chain", "class"):
        mu = mu_from_strategy(group, strategy)
        for i, tau in enumerate(REGRADINGS.values()):
            grades = [tau(v) for v in mu.grades]
            assert rank_grades(grades)[1] == rank_grades(mu.grades)[1]
            path = tmp_path / f"{strategy}-{i}.json"
            save(path, mu_to_json(fuzzy_subset(group, grades)))
            sources[f"file:{path}"] = strategy
    rows = run_campaign(Campaign(groups=(token,), mu_sources=("chain", "class", *sources)))
    verdicts: dict = {}
    for r in rows:
        verdicts.setdefault(r.instance.split("|mu=")[1], {})[r.statement] = r.verdict
    assert all(len(v) == len(STATEMENT_IDS) for v in verdicts.values())
    assert all(verdicts["chain"].values()) and all(verdicts["class"].values())
    for source, strategy in sources.items():
        assert verdicts[source] == verdicts[strategy], source


def test_a_regrading_that_lowers_the_grade_1_is_bad_input(tmp_path, capsys):
    """tau(v) = v/2 leaves mu(e) = 1/2, so mu is no longer pointed: exit 2."""
    mu = mu_from_strategy(builtin_group("S3"), "chain")
    path = tmp_path / "halved.json"
    save(path, mu_to_json(fuzzy_subset(mu.group, [v / 2 for v in mu.grades])))
    assert cli_main(["verify", "--group", "builtin:S3", "--mu", f"file:{path}"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("token, twin", [
    ("Z6", "direct_product(Z2,Z3)"),
    ("S3", "D3"),
    ("D6", "direct_product(S3,Z2)"),
    ("Z10", "direct_product(Z2,Z5)"),
])
def test_isomorphic_presentations_get_the_same_verdicts(token, twin):
    """Two labelings of one group: every verdict of every statement with chain
    and class mu agrees, and so do |Aut|, |Inn| and the number of normal
    subgroups.  (V4 and direct_product(Z2,Z2) build the same table.)"""
    def facts(group_token):
        group = builtin_group(group_token)
        rows = run_campaign(Campaign(groups=(group_token,)))
        verdicts = {(r.statement, r.instance.split("|")[1]): r.verdict for r in rows}
        inner = len(set(conjugations(group)))
        assert inner * len(center(group)) == group.order
        return verdicts, len(crisp_automorphisms(group)), inner, len(normal_subgroups(group))

    assert builtin_group(token).table != builtin_group(twin).table
    expected = facts(token)
    assert len(expected[0]) == 2 * len(STATEMENT_IDS)
    assert facts(twin) == expected


@pytest.mark.parametrize("mu", ["chain", "class"])
class TestUnitEntriesOfLiftsAndFamily:
    """Lifts and the induced family reindex f_e's rank rows and unit positions;
    a ``ranked_map`` scan of the same rows is the oracle."""

    @staticmethod
    def assert_scanned(ctx):
        assert ctx.mu_error is None and ctx.hom_samples
        for f in [f for _, f in ctx.hom_samples] + ctx.induced_raw:
            scanned = maps.ranked_map(f.domain, f.codomain, *f.encoding)
            assert (f.images, f.encoding, f.domain, f.codomain) == (
                scanned.images, scanned.encoding, scanned.domain, scanned.codomain
            )

    @pytest.mark.parametrize("token", DEFAULT_GROUPS + ("S4",))
    def test_builtin_groups(self, token, mu):
        self.assert_scanned(_Instance(_Group(token), mu))

    def test_file_group_with_its_identity_off_0(self, mu, tmp_path):
        path = tmp_path / "S4.json"
        save(path, relabeled(builtin_group("S4")))
        ctx = _Instance(_Group(f"file:{path}"), mu)
        assert ctx.group.identity != 0
        self.assert_scanned(ctx)


@pytest.mark.parametrize("token", DEFAULT_GROUPS + ("S4", "D8"))
@pytest.mark.parametrize("mu", ["chain", "class"])
class TestSampleDeduplication:
    """The section 3 samples are the lifts of the crisp automorphisms: merging
    the labeled family in and deduplicating by grades adds none of its maps."""

    def test_same_samples_as_keying_on_grades(self, token, mu):
        ctx = _Instance(_Group(token), mu)
        candidates = [
            (f"lift:aut{i}", lift_hom(sigma, ctx.mu, ctx.group))
            for i, sigma in enumerate(crisp_automorphisms(ctx.group))
        ] + [(f"induced:g={g}", ctx.induced_raw[g]) for g in ctx.group.elements]
        by_grades: dict = {}
        for tag, fmap in candidates:
            by_grades.setdefault(fmap.grades, (tag, fmap))
        assert ctx.aut_samples == list(by_grades.values())

    def test_hom_samples_are_the_lifts_then_the_quotient_maps(self, token, mu):
        ctx = _Instance(_Group(token), mu)
        aut_tags = [tag for tag, _ in ctx.aut_samples]
        quotient_tags = [
            f"lift:quot|N|={len(n)}" for n in normal_subgroups(ctx.group) if len(n) > 1
        ]
        assert [tag for tag, _ in ctx.hom_samples] == aut_tags + quotient_tags
        assert len({f.images for _, f in ctx.aut_samples}) == len(aut_tags)
