"""Acceptance gate: one test per criterion, exact arithmetic, zero tolerance.

Each criterion prints its own pass/fail line; timing bounds are asserted
where the criterion states one.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import json
import time

from fuzzaut import harness
from fuzzaut.cli import EXIT_CONFIG, EXIT_OK, EXIT_SUITE_FAILED, main
from fuzzaut.groups import builtin_group, center, opposite_group
from fuzzaut.homs import is_fuzzy_homomorphism
from fuzzaut.harness import Campaign, ablation, run_campaign
from fuzzaut.induced import build_inn_group, theta, zeta
from fuzzaut.io import save
from fuzzaut.maps import make_fuzzy_map
from fuzzaut.subsets import mu_from_strategy

DEFAULT_MATRIX = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "V4", "S3", "D4", "Q8")
ORDER_16_BUILTINS = (
    tuple(f"Z{n}" for n in range(1, 17))
    + tuple(f"D{n}" for n in range(1, 9))
    + ("S1", "S2", "S3", "Q8", "V4")
)
MU_STRATEGIES = ("chain", "class")


def report_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def run_suites(groups, suites, mus=MU_STRATEGIES):
    campaign = Campaign(groups=groups, mu_sources=mus, suites=suites)
    return run_campaign(campaign)


def test_criterion_1_homomorphism_theorems():
    start = time.perf_counter()
    results = run_suites(DEFAULT_MATRIX, ("Theorem 2.1", "Theorem 2.2"))
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.verdict]
    # the S3 instances must include the parity quotient onto a 2-element group
    from fuzzaut.harness import _Group, _Instance

    ctx = _Instance(_Group("S3"), "chain")
    sign_tags = [tag for tag, _ in ctx.shared.quotient_lifts if "|N|=3" in tag]
    report_criterion(
        1,
        not failures and elapsed < 5.0 and bool(sign_tags),
        f"{len(results)} structural-fact rows over lifted homomorphisms, "
        f"{len(failures)} failures, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_automorphism_group_axioms():
    suites = (
        "Lemma 3.1", "Lemma 3.2", "Lemma 3.3", "Lemma 3.4", "Lemma 3.5",
        "Lemma 3.6", "Lemma 3.7", "Lemma 3.8", "Lemma 3.9", "Theorem 3.1",
    )
    groups = tuple(t for t in DEFAULT_MATRIX if builtin_group(t).order <= 8)
    start = time.perf_counter()
    results = run_suites(groups, suites)
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.verdict]
    report_criterion(
        2,
        not failures and elapsed < 30.0,
        f"{len(results)} group-axiom rows over {len(groups)} groups x 2 mu, "
        f"{len(failures)} failures, {elapsed:.2f}s (< 30s)",
    )


def test_criterion_3_graded_conjugation_laws():
    suites = ("Lemma 4.1", "Lemma 4.2", "Lemma 4.3", "Lemma 4.4", "Lemma 4.5", "Lemma 4.6")
    start = time.perf_counter()
    results = run_suites(ORDER_16_BUILTINS, suites)
    elapsed = time.perf_counter() - start
    failures = [r for r in results if not r.verdict]
    orders = {builtin_group(t).order for t in ORDER_16_BUILTINS}
    report_criterion(
        3,
        not failures and elapsed < 60.0 and max(orders) == 16,
        f"{len(results)} construction rows over {len(ORDER_16_BUILTINS)} builtin groups "
        f"of order <= 16, {len(failures)} failures, {elapsed:.2f}s (< 60s)",
    )


def test_criterion_4_quotient_isomorphism():
    """zeta's verdict, with its facts recomputed here from ``inn.class_of`` and
    ``center`` over every pair of elements."""
    checked = 0
    for token in DEFAULT_MATRIX:
        group = builtin_group(token)
        for strategy in MU_STRATEGIES:
            mu = mu_from_strategy(group, strategy)
            inn = build_inn_group(group, mu)
            images = [inn.class_of[group.inverses[g]] for g in group.elements]
            assert len(inn.classes) * len(center(group)) == group.order, token
            assert all(images[group.table[a][b]] == inn.table.table[images[a]][images[b]]
                       for a in group.elements for b in group.elements), token
            assert set(images) == set(inn.table.elements), token
            kernel = {g for g in group.elements if images[g] == images[group.identity]}
            assert kernel == center(group), token
            assert zeta(group, mu) == (True, None), token
            if token == "S3":
                assert len(inn.classes) == 6
            if token == "Q8":
                assert len(inn.classes) == 4
                assert all(
                    inn.table.table[a][a] == inn.table.identity for a in inn.table.elements
                )
            if center(group) == frozenset(group.elements):  # abelian
                assert len(inn.classes) == 1
            checked += 1
    report_criterion(
        4, True, f"{checked} (group, mu) instances: class counts, kernel = center, quotient isomorphism"
    )


def test_criterion_5_graded_evaluation_map():
    """theta's verdict, with its map rebuilt here from its cells mu(a^-1 * b^-1)
    over the opposite group."""
    checked = 0
    for token in DEFAULT_MATRIX:
        group = builtin_group(token)
        labels = opposite_group(group)
        t, inv = group.table, group.inverses
        for strategy in MU_STRATEGIES:
            mu = mu_from_strategy(group, strategy)
            rows = [[mu.grades[t[inv[a]][inv[b]]] for b in group.elements] for a in group.elements]
            fmap = make_fuzzy_map(group, labels, rows)
            assert list(fmap.images) == list(inv), token
            assert is_fuzzy_homomorphism(fmap).verdict, token
            kernel = [a for a in group.elements if fmap.images[a] == labels.identity]
            assert kernel == [group.identity], token
            assert sorted(fmap.images) == list(group.elements), token
            assert theta(group, mu) == (True, None), token
            checked += 1
    report_criterion(
        5, True, f"{checked} (group, mu) instances: sup condition under label composition, "
        "trivial kernel, onto",
    )


def test_criterion_6_ablation_sanity():
    pointed_rows = ablation(Campaign(groups=("Z2",)), "pointed")
    assert len(pointed_rows) == 1
    assert pointed_rows[0].verdict and pointed_rows[0].expected_failure
    assert "MultipleUnitEntries" in pointed_rows[0].witness

    normal_rows = ablation(Campaign(groups=("S3",)), "normal-mu")
    assert len(normal_rows) == 1
    assert normal_rows[0].verdict and normal_rows[0].expected_failure
    assert "Lemma 4.3 counterexample" in normal_rows[0].witness

    assert ablation(Campaign(groups=("Z2",)), "pointed") == pointed_rows
    assert ablation(Campaign(groups=("S3",)), "normal-mu") == normal_rows
    report_criterion(
        6,
        True,
        "dropped pointedness breaks map uniqueness, dropped normality yields a "
        "composition counterexample; both deterministic",
    )


def test_criterion_7_determinism_and_exit_codes(capsys, tmp_path, monkeypatch):
    argv = ["verify", "--suite", "all", "--format", "json"]
    assert main(list(argv)) == EXIT_OK
    first = capsys.readouterr().out
    assert main(list(argv)) == EXIT_OK
    second = capsys.readouterr().out
    byte_identical = first == second

    ok_code = main(["verify", "--group", "builtin:Z4", "--suite", "hom"])
    capsys.readouterr()
    with monkeypatch.context() as seeded:  # a checker defect: every Theorem 2.1 sample fails
        all_four = ("failed images multiply, identity pair has grade 1, "
                    "inverses map to inverses, unit entries invert")
        seeded.setattr(harness, "check_theorem_2_1", lambda f: (False, all_four))
        fail_code = main(["verify", "--group", "builtin:Z4", "--suite", "hom"])
    capsys.readouterr()
    bad_mu = tmp_path / "bad_mu.json"
    save(
        bad_mu,
        {"group": "Q8", "grades": ["1", "1/2", "1/4", "1/4", "1/2", "1/4", "1/4", "1/4"]},
    )
    config_code = main(["verify", "--group", "builtin:Q8", "--mu", f"file:{bad_mu}"])
    capsys.readouterr()

    report = json.loads(first)
    report_criterion(
        7,
        byte_identical
        and report["summary"]["fail"] == 0
        and (ok_code, fail_code, config_code) == (EXIT_OK, EXIT_SUITE_FAILED, EXIT_CONFIG),
        f"byte-identical full reports ({len(first)} bytes), exit codes "
        f"(0, 1, 2) = ({ok_code}, {fail_code}, {config_code})",
    )
