"""Command-line contract: exit codes, report formats, file round trips."""

import hashlib
import json
from itertools import permutations

import pytest

from fuzzaut import subsets
from fuzzaut.cli import EXIT_CONFIG, EXIT_OK, EXIT_SUITE_FAILED, main
from fuzzaut.io import save


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_all_pass_is_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--group", "builtin:Z4", "--mu", "auto:class", "--suite", "all"
        )
        assert code == EXIT_OK
        assert "failed 0" in out
        assert err == ""

    def test_failed_probe_is_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--group", "builtin:Z1", "--ablate", "pointed"
        )
        assert code == EXIT_SUITE_FAILED
        assert "FAIL" in out

    def test_a_defect_building_mu_is_one_with_failing_rows(self, capsys, monkeypatch):
        """A ``RuntimeError`` is left to the campaign: FAIL rows and exit 1, no traceback."""
        def raiser(group):
            raise RuntimeError("seeded defect")

        monkeypatch.setitem(subsets._STRATEGIES, "chain", raiser)
        code, out, err = run_cli(
            capsys, "verify", "--group", "builtin:Z4", "--mu", "auto:all", "--suite", "hom"
        )
        assert code == EXIT_SUITE_FAILED and err == ""
        assert out.splitlines() == [
            "FAIL Theorem 2.1 [Z4|mu=chain] :: RuntimeError: seeded defect",
            "PASS Theorem 2.1 [Z4|mu=class]",
            "FAIL Theorem 2.2 [Z4|mu=chain] :: RuntimeError: seeded defect",
            "PASS Theorem 2.2 [Z4|mu=class]",
            "passed 2, failed 2",
        ]

    def test_invalid_mu_file_is_two(self, capsys, tmp_path):
        path = tmp_path / "bad_mu.json"
        save(
            path,
            {"group": "Q8", "grades": ["1", "1/2", "1/4", "1/4", "1/2", "1/4", "1/4", "1/4"]},
        )
        code, out, err = run_cli(
            capsys, "verify", "--group", "builtin:Q8", "--mu", f"file:{path}"
        )
        assert code == EXIT_CONFIG
        assert "MuNotNormal" in err
        assert out == ""

    def test_non_integer_group_cell_is_two(self, capsys, tmp_path):
        path = tmp_path / "z2.json"
        save(path, {"name": "Z2", "order": 2, "table": [[0, 1], [1.9, 0]]})
        code, out, err = run_cli(capsys, "verify", "--group", f"file:{path}", "--suite", "hom")
        assert code == EXIT_CONFIG
        assert "FileFormatError" in err
        assert out == ""

    def test_oversized_group_file_is_two_before_make_group(self, capsys, tmp_path, monkeypatch):
        import fuzzaut.io

        built = []
        monkeypatch.setattr(fuzzaut.io, "make_group", lambda *a, **k: built.append(a))
        path = tmp_path / "z257.json"
        table = [[(a + b) % 257 for b in range(257)] for a in range(257)]
        save(path, {"name": "Z257", "order": 257, "table": table})
        code, out, err = run_cli(capsys, "verify", "--group", f"file:{path}", "--suite", "hom")
        assert code == EXIT_CONFIG
        assert "FileFormatError" in err and "declared order 257 exceeds the bound 256" in err
        assert out == "" and built == []

    def test_oversized_direct_product_is_two_before_its_table(self, capsys, monkeypatch):
        import fuzzaut.groups

        built = []
        monkeypatch.setattr(fuzzaut.groups, "_direct_table", lambda *a: built.append(a))
        token = "builtin:direct_product(direct_product(S4,S4),Z2)"
        code, out, err = run_cli(capsys, "verify", "--group", token, "--suite", "thm:2.1")
        assert code == EXIT_CONFIG
        assert "GroupTooLarge" in err and "has order 576, above the bound 256" in err
        assert out == "" and built == []

    def test_unknown_group_is_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--group", "builtin:Z99")
        assert code == EXIT_CONFIG
        assert "UnknownGroup" in err

    def test_bad_flag_is_two(self, capsys):
        assert main(["verify", "--format", "yaml"]) == EXIT_CONFIG


class TestVerify:
    def test_json_reports_are_byte_identical(self, capsys):
        argv = ("verify", "--group", "builtin:S3", "--suite", "all", "--format", "json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_json_is_key_sorted(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "--group", "builtin:Z4", "--suite", "hom", "--format", "json"
        )
        report = json.loads(out)
        assert json.dumps(report, indent=2, sort_keys=True) + "\n" == out
        assert report["summary"]["fail"] == 0

    def test_suite_filters(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "--group", "builtin:Z4", "--suite", "thm:4.2", "--format", "json"
        )
        report = json.loads(out)
        assert {row["statement"] for row in report["results"]} == {"Theorem 4.2"}
        _, out, _ = run_cli(
            capsys, "verify", "--group", "builtin:Z4", "--suite", "thm:lemma-4.3", "--format", "json"
        )
        assert {r["statement"] for r in json.loads(out)["results"]} == {"Lemma 4.3"}

    def test_unknown_suite_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--group", "builtin:Z4", "--suite", "thm:9.9")
        assert code == EXIT_CONFIG and "no statement" in err

    def test_ablation_normality_passes_on_s3(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--group", "builtin:S3", "--ablate", "normal-mu"
        )
        assert code == EXIT_OK
        assert "PASS Ablation(normal-mu)" in out

    def test_seed_is_echoed(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "--group", "builtin:Z2", "--suite", "hom",
            "--format", "json", "--seed", "42",
        )
        assert json.loads(out)["campaign"]["seed"] == 42


# sha256 prefix of `verify --group builtin:G --mu auto:all --suite all --format json`
RECORDED_REPORTS = {
    "S4": "d677b342ed6d23ea",
    "D8": "9e8b64fc530d1669",
    "direct_product(Z2,Q8)": "aa10fc31ea6290a6",
}


# sha256 prefix of the text output of `verify --group builtin:S3`, which shows no timings
RECORDED_S3_TEXT = "85ffc62b4204f57d"

# sha256 prefix of `verify --group builtin:S4 --ablate TOKEN --format json`
RECORDED_S4_ABLATIONS = {
    "pointed": "308579f57af39b88",
    "normal-mu": "1c2e2aa1cf1f9e88",
}

# exit code and sha256 prefix of `verify --ablate TOKEN --format json` over the
# default groups: on Z1 the flat mu is pointed, so that pointed probe fails;
# the normal-mu ablation builds the induced family over a non-normal mu
RECORDED_DEFAULT_ABLATIONS = {
    "pointed": (EXIT_SUITE_FAILED, "1d27e39929c83d65"),
    "normal-mu": (EXIT_OK, "7c2dfcdf49ad6e03"),
}


class TestRecordedReports:
    """The full reports on the three largest targets stay byte for byte the same."""

    @pytest.mark.parametrize("token", sorted(RECORDED_REPORTS))
    def test_report_digest(self, capsys, token):
        code, out, _ = run_cli(
            capsys, "verify", "--group", f"builtin:{token}", "--mu", "auto:all",
            "--suite", "all", "--format", "json",
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == RECORDED_REPORTS[token]

    def test_text_report_digest(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", "builtin:S3")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == RECORDED_S3_TEXT

    @pytest.mark.parametrize("token", sorted(RECORDED_S4_ABLATIONS))
    def test_ablation_report_digest(self, capsys, token):
        code, out, _ = run_cli(
            capsys, "verify", "--group", "builtin:S4", "--ablate", token, "--format", "json"
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == RECORDED_S4_ABLATIONS[token]

    @pytest.mark.parametrize("token", sorted(RECORDED_DEFAULT_ABLATIONS))
    def test_default_matrix_ablation_report_digest(self, capsys, token):
        code, out, _ = run_cli(capsys, "verify", "--ablate", token, "--format", "json")
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        assert (code, digest) == RECORDED_DEFAULT_ABLATIONS[token]


def alternating_group_a5():
    """A5 as the even permutations of five points, composed right to left."""
    perms = [
        p for p in permutations(range(5))
        if sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0
    ]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(5))] for q in perms] for p in perms]
    return {"name": "A5", "order": 60, "table": table}


class TestAblationReadsNoMu:
    """The default ``--mu auto:all`` includes the class strategy, which needs a
    solvable group; an ablation builds its own mu, so A5 is good input."""

    @pytest.mark.parametrize("token", ["pointed", "normal-mu"])
    def test_a5_ablation_is_one_expected_failure_row(self, capsys, tmp_path, token):
        path = tmp_path / "a5.json"
        save(path, alternating_group_a5())
        code, out, err = run_cli(
            capsys, "verify", "--group", f"file:{path}", "--ablate", token, "--format", "json"
        )
        assert (code, err) == (EXIT_OK, "")
        rows = json.loads(out)["results"]
        assert len(rows) == 1
        assert rows[0]["verdict"] and rows[0]["expected"]
        assert rows[0]["instance"].startswith("A5|")

    def test_a5_campaign_still_refuses_the_class_mu(self, capsys, tmp_path):
        path = tmp_path / "a5.json"
        save(path, alternating_group_a5())
        code, out, err = run_cli(capsys, "verify", "--group", f"file:{path}", "--suite", "hom")
        assert code == EXIT_CONFIG
        assert "StrategyInapplicable" in err and out == ""


class TestGenMu:
    def test_z4_chain_grades(self, capsys):
        _, out, _ = run_cli(capsys, "gen-mu", "--group", "builtin:Z4", "--strategy", "chain")
        payload = json.loads(out)
        assert payload == {"group": "Z4", "grades": ["1", "1/4", "1/2", "1/4"]}

    def test_s3_class_grades_are_class_constant(self, capsys):
        _, out, _ = run_cli(capsys, "gen-mu", "--group", "builtin:S3", "--strategy", "class")
        grades = json.loads(out)["grades"]
        assert grades[1] == grades[2] == grades[5]  # transpositions share a grade
        assert grades[3] == grades[4]  # so do the 3-cycles

    def test_trivial_group(self, capsys):
        _, out, _ = run_cli(capsys, "gen-mu", "--group", "builtin:Z1", "--strategy", "chain")
        assert json.loads(out)["grades"] == ["1"]

    def test_written_file_round_trips_through_verify(self, capsys, tmp_path):
        path = tmp_path / "mu.json"
        code, _, _ = run_cli(
            capsys, "gen-mu", "--group", "builtin:Q8", "--strategy", "class", "--out", str(path)
        )
        assert code == EXIT_OK
        code, out, _ = run_cli(
            capsys, "verify", "--group", "builtin:Q8", "--mu", f"file:{path}", "--suite", "induced"
        )
        assert code == EXIT_OK and "failed 0" in out

    def test_gen_mu_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "mu.json"
        run_cli(capsys, "gen-mu", "--group", "builtin:Z4", "--strategy", "chain", "--out", str(path))
        _, out, _ = run_cli(capsys, "gen-mu", "--group", "builtin:Z4", "--strategy", "chain")
        assert path.read_text(encoding="utf-8") == out

    def test_unwritable_out_is_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "mu.json"
        code, out, err = run_cli(
            capsys, "gen-mu", "--group", "builtin:Z4", "--strategy", "chain", "--out", str(path)
        )
        assert code == EXIT_CONFIG
        assert "FileFormatError" in err and "cannot write" in err
        assert out == ""


class TestInn:
    def test_q8_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "inn", "--group", "builtin:Q8", "--mu", "auto:class", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["classes"] == [[0, 1], [2, 3], [4, 5], [6, 7]]
        assert payload["iso_with_quotient"] is True
        table = payload["table"]
        assert all(table[a][a] == 0 for a in range(4))  # Klein four: every class is an involution

    def test_abelian_single_class(self, capsys):
        code, out, _ = run_cli(capsys, "inn", "--group", "builtin:Z6")
        assert code == EXIT_OK
        assert "1 classes" in out

    def test_s3_six_classes(self, capsys):
        code, out, _ = run_cli(capsys, "inn", "--group", "builtin:S3")
        assert code == EXIT_OK
        assert "6 classes" in out

    def test_group_file_source(self, capsys, tmp_path):
        from fuzzaut.groups import builtin_group
        from fuzzaut.io import group_to_json

        path = tmp_path / "v4.json"
        save(path, group_to_json(builtin_group("V4")))
        code, out, _ = run_cli(capsys, "inn", "--group", f"file:{path}", "--mu", "auto:chain")
        assert code == EXIT_OK and "1 classes" in out
