"""Campaign runner: determinism, coverage, precondition routing, ablations."""

import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fuzzaut import groups, harness, homs, induced, maps, subsets
from fuzzaut.errors import FuzzautError
from fuzzaut.harness import (
    ABLATION_TOKENS,
    DEFAULT_GROUPS,
    SECTION_4_STATEMENTS,
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
    statements_covered,
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
from fuzzaut.subsets import fuzzy_subset, mu_from_strategy


SMALL = Campaign(groups=("Z4", "S3"))
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
        assert statements_covered(results) == tuple(sorted(STATEMENT_IDS))

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

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigInvalid):
            run_campaign(Campaign(groups=("Z4",), suites=("Lemma 9.9",)))

    def test_unknown_group_rejected(self):
        with pytest.raises(ConfigInvalid):
            run_campaign(Campaign(groups=("Z99",)))


class TestWorkCounts:
    def test_default_campaign_reuses_each_codomains_row_products(self, monkeypatch):
        """Rows run one instance at a time, so an instance's codomains keep
        their row-product memos from statement to statement (1,593 products
        when each statement ran over every instance in turn, 791 when each
        product missing from the memo was computed rather than translated
        from a core)."""
        calls = []
        row_product = homs._row_product

        def counted(*args):
            calls.append(None)
            return row_product(*args)

        homs._row_tables.cache_clear()
        monkeypatch.setattr(homs, "_row_product", counted)
        run_campaign(default_campaign())
        assert 0 < len(calls) <= 63

    @staticmethod
    def calls_to(monkeypatch, module, name):
        """Count the calls of ``module.name`` at every fuzzaut site that binds it."""
        original, calls = getattr(module, name), []

        def counted(*args):
            calls.append(None)
            return original(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "fuzzaut" or mod_name.startswith("fuzzaut."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
        for cached in (
            induced.build_inn_group,
            subsets.chain_strategy,
            subsets.class_strategy,
            groups.center_quotient,
            groups.opposite_group,
        ):
            cached.cache_clear()
        return calls

    def test_default_campaign_builds_each_groups_quotient_lifts_once(self, monkeypatch):
        """The quotient lifts read no mu, so each group builds its 28 lifts
        once for both mu sources; zeta adds one center quotient per group
        (12) and the lifted automorphisms 132 lifts (80 and 188 when each
        instance built its own, 52 when zeta built a center quotient per
        instance)."""
        quotients = self.calls_to(monkeypatch, groups, "quotient_group")
        lifts = self.calls_to(monkeypatch, homs, "lift_hom")
        run_campaign(default_campaign())
        assert (len(quotients), len(lifts)) == (40, 160)

    @pytest.mark.parametrize("name, passes, checks, products", [
        ("s4-hom.json", 28, 251, range(5, 6)),
        ("default-matrix.json", 196, 1276, range(63, 64)),
    ])
    def test_each_distinct_map_takes_one_generator_pass(
        self, monkeypatch, name, passes, checks, products
    ):
        """A passing map's key is kept on its codomain, so only a map not seen
        before takes a generator pass (each of the 251 and 952 checks took one
        when nothing was kept).  ``homs.generating_sequence`` is read once per
        pass and not on a held check, which makes it the pass counter.  A
        product missing from the memo is translated from the core of its
        centred rows, and only a new core is computed: 5 and 63 products
        (351 and 791 when every missing product was computed).  The default
        matrix makes 1,276 checks: Lemma 3.9 checks every (sample, label)
        conjugate, 324 more than the 952 when it kept one verdict per
        distinct conjugate, and each of them is a held key."""
        passes_run, generating_sequence = [], homs.generating_sequence

        def counted(group):
            passes_run.append(None)
            return generating_sequence(group)

        monkeypatch.setattr(homs, "generating_sequence", counted)
        hom_checks = self.calls_to(monkeypatch, homs, "is_fuzzy_homomorphism")
        row_products = self.calls_to(monkeypatch, homs, "_row_product")
        homs._row_tables.cache_clear()
        run_campaign(recorded_campaign(name))
        assert (len(passes_run), len(hom_checks)) == (passes, checks)
        assert len(row_products) in products

    @pytest.mark.parametrize("suites", [("Lemma 3.7", "Lemma 4.4"), ("Lemma 3.7",)])
    @pytest.mark.parametrize("tokens, composites", [(DEFAULT_GROUPS, 154), (("S4",), 1152)])
    def test_lemmas_3_7_and_4_4_compose_each_pair_of_representatives_once(
        self, monkeypatch, suites, tokens, composites
    ):
        """Both lemmas read one table of the r^2 pair composites of an
        instance's representatives: sum r^2 = 154 over the default groups and
        1,152 on S4, with Lemma 4.4 or without it (2,426 and 85,248 when
        Lemma 4.4 made r^2 + 3r^3 compositions of its own)."""
        composed = self.calls_to(monkeypatch, maps, "compose_maps")
        rows = run_campaign(Campaign(groups=tokens, suites=suites))
        assert rows and all(r.verdict for r in rows)
        assert len(composed) == composites

    def test_s4_hom_campaign_builds_its_quotients_once(self, monkeypatch):
        """S4's three non-trivial normal subgroups, once for chain and class mu
        (6 when each instance built its own)."""
        quotients = self.calls_to(monkeypatch, groups, "quotient_group")
        run_campaign(Campaign(groups=("S4",), suites=SUITE_GROUPS["hom"]))
        assert len(quotients) == 3


class TestPreconditionRouting:
    @pytest.fixture
    def corrupted_mu_file(self, tmp_path):
        # class-asymmetric grades on Q8: a fuzzy subgroup inequality breaks
        path = tmp_path / "bad_mu.json"
        save(
            path,
            {
                "group": "Q8",
                "grades": ["1", "1/2", "1/4", "1/4", "1/2", "1/4", "1/4", "1/4"],
            },
        )
        return f"file:{path}"

    def test_corrupted_mu_hits_only_graded_suites(self, corrupted_mu_file):
        campaign = Campaign(groups=("Q8",), mu_sources=("class", corrupted_mu_file))
        results = run_campaign(campaign)
        bad = [r for r in results if corrupted_mu_file in r.instance]
        good = [r for r in results if corrupted_mu_file not in r.instance]
        assert bad and all(not r.verdict for r in bad)
        assert all("MuNotNormal" in r.witness for r in bad)
        assert {r.statement for r in bad} == set(SECTION_4_STATEMENTS)
        assert good and all(r.verdict for r in good)
        assert statements_covered(good) == tuple(sorted(STATEMENT_IDS))

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

    def test_pointed_ablation_cannot_fail_on_trivial_group(self):
        rows = ablation(Campaign(groups=("Z1",)), "pointed")
        assert len(rows) == 1 and not rows[0].verdict

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
        and its hom-check and lift counts stay comparable across changes."""
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
        assert layers["homs.is_fuzzy_homomorphism.calls"] == 251
        assert layers["homs.lift_hom.calls"] == 51


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


def campaign_rows(token, mu, path):
    """{statement: (verdict, witness)} of the campaign of ``token`` with ``mu``
    read from a file at ``path``."""
    save(path, mu_to_json(mu))
    results = run_campaign(Campaign(groups=(token,), mu_sources=(f"file:{path}",)))
    return {r.statement: (r.verdict, r.witness) for r in results}


def regraded(mu):
    return fuzzy_subset(mu.group, [v * v for v in mu.grades])


@pytest.mark.parametrize("token", ["S3", "D4", "Q8", "Z6", "S4"])
@pytest.mark.parametrize("strategy", ["chain", "class"])
def test_regraded_mu_gets_the_same_rows(token, strategy, tmp_path):
    """v -> v^2 is strictly increasing on [0, 1] and fixes 0 and 1, so no law
    can tell mu from its regrading: every statement keeps its verdict, and a
    witness keeps its elements and has its grades squared."""
    mu = mu_from_strategy(builtin_group(token), strategy)
    assert any(0 < v < 1 for v in mu.grades)
    plain = campaign_rows(token, mu, tmp_path / "mu.json")
    squared = campaign_rows(token, regraded(mu), tmp_path / "squared.json")
    assert len(plain) == len(STATEMENT_IDS) and all(v for v, _ in plain.values())
    assert squared == {s: (v, squared_grades(w)) for s, (v, w) in plain.items()}


def test_regraded_invalid_mu_gets_the_squared_witnesses(tmp_path):
    """A mu that is no fuzzy subgroup fails its rows with a witness in grades."""
    mu = fuzzy_subset(builtin_group("S3"), ["1", "1/2", "1/3", "1/2", "1/3", "1/4"])
    plain = campaign_rows("S3", mu, tmp_path / "mu.json")
    squared = campaign_rows("S3", regraded(mu), tmp_path / "squared.json")
    assert not any(v for v, _ in plain.values())
    assert any(PROPER_FRACTION.search(w) for _, w in plain.values())
    assert squared == {s: (v, squared_grades(w)) for s, (v, w) in plain.items()}


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
