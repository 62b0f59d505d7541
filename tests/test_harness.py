"""Campaign runner: determinism, coverage, precondition routing, ablations."""

import json
from pathlib import Path

import pytest

from fuzzaut import harness, homs
from fuzzaut.errors import FuzzautError
from fuzzaut.harness import (
    ABLATION_TOKENS,
    DEFAULT_GROUPS,
    SECTION_4_STATEMENTS,
    STATEMENT_IDS,
    STATEMENTS,
    Campaign,
    ConfigInvalid,
    UnknownToken,
    _Instance,
    ablation,
    campaign_report,
    default_campaign,
    run_campaign,
    statements_covered,
)
from fuzzaut.groups import builtin_group, crisp_automorphisms, normal_subgroups
from fuzzaut.homs import lift_hom
from fuzzaut.io import dumps, save


SMALL = Campaign(groups=("Z4", "S3"))
RECORDED = Path(__file__).resolve().parent.parent / "bench" / "expected"


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
        when each statement ran over every instance in turn)."""
        calls = []
        row_product = homs._row_product

        def counted(*args):
            calls.append(None)
            return row_product(*args)

        homs._row_tables.cache_clear()
        monkeypatch.setattr(homs, "_row_product", counted)
        run_campaign(default_campaign())
        assert 0 < len(calls) <= 791


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


@pytest.mark.parametrize("token", DEFAULT_GROUPS + ("S4", "D8"))
@pytest.mark.parametrize("mu", ["chain", "class"])
class TestSampleDeduplication:
    """The section 3 samples are the lifts of the crisp automorphisms: merging
    the labeled family in and deduplicating by grades adds none of its maps."""

    def test_same_samples_as_keying_on_grades(self, token, mu):
        ctx = _Instance(builtin_group(token), mu)
        candidates = [
            (f"lift:aut{i}", lift_hom(sigma, ctx.mu, ctx.group))
            for i, sigma in enumerate(crisp_automorphisms(ctx.group))
        ] + [(f"induced:g={g}", ctx.induced_raw[g]) for g in ctx.group.elements]
        by_grades: dict = {}
        for tag, fmap in candidates:
            by_grades.setdefault(fmap.grades, (tag, fmap))
        assert ctx.aut_samples == list(by_grades.values())

    def test_hom_samples_are_the_lifts_then_the_quotient_maps(self, token, mu):
        ctx = _Instance(builtin_group(token), mu)
        aut_tags = [tag for tag, _ in ctx.aut_samples]
        quotient_tags = [
            f"lift:quot|N|={len(n)}" for n in normal_subgroups(ctx.group) if len(n) > 1
        ]
        assert [tag for tag, _ in ctx.hom_samples] == aut_tags + quotient_tags
        assert len({f.images for _, f in ctx.aut_samples}) == len(aut_tags)
