"""Command-line front end.

Three subcommands: ``verify`` runs law campaigns, ``gen-mu`` writes canonical
membership-function files, ``inn`` reports the class group of the labeled
family.  Reports go to stdout, diagnostics to stderr.  Exit codes are a
stable contract: 0 all verdicts pass, 1 at least one suite failed, 2 input or
configuration error.  ``verify`` resolves no input itself: the campaign does,
once, and a ``FuzzautError`` it raises before any suite runs exits 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import io as fio
from .errors import FuzzautError
from .groups import FiniteGroup
from .harness import (
    ABLATION_TOKENS,
    DEFAULT_GROUPS,
    STATEMENT_IDS,
    SUITE_GROUPS,
    Campaign,
    ablation,
    campaign_report,
    resolve_group,
    resolve_mu,
)
from .induced import build_inn_group, zeta
from .subsets import FuzzySubset, mu_from_strategy

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_CONFIG = 2


def _strip_prefix(token: str, prefix: str) -> str:
    return token[len(prefix):] if token.startswith(prefix) else token


def _group_tokens(source: str) -> tuple[str, ...]:
    if source == "default":
        return DEFAULT_GROUPS
    return (_strip_prefix(source, "builtin:"),)


def _mu_tokens(source: str) -> tuple[str, ...]:
    token = _strip_prefix(source, "auto:")
    if token == "all":
        return ("chain", "class")
    return (token,)


def _suite_selection(token: str) -> tuple[str, ...]:
    if token in SUITE_GROUPS:
        return SUITE_GROUPS[token]
    if token.startswith("thm:"):
        wanted = token[len("thm:"):].strip().lower().replace("-", " ").replace("_", " ")
        by_ident = {s.lower(): s for s in STATEMENT_IDS}
        for key in (wanted, f"theorem {wanted}", f"lemma {wanted}"):
            if key in by_ident:
                return (by_ident[key],)
        raise FuzzautError(f"no statement matches {token!r}")
    raise FuzzautError(f"unknown suite {token!r}")


def _emit_text(report: dict, out) -> None:
    for row in report["results"]:
        status = "PASS" if row["verdict"] else "FAIL"
        line = f"{status} {row['statement']} [{row['instance']}]"
        if row["witness"] and not row["verdict"]:
            line += f" :: {row['witness']}"
        print(line, file=out)
    summary = report["summary"]
    print(f"passed {summary['pass']}, failed {summary['fail']}", file=out)


def cmd_verify(args) -> int:
    groups = _group_tokens(args.group)
    mus = _mu_tokens(args.mu)
    suites = _suite_selection(args.suite)
    campaign = Campaign(groups=groups, mu_sources=mus, suites=suites, seed=args.seed)
    results = ablation(campaign, args.ablate)
    report = campaign_report(campaign, results, ablate=args.ablate)
    if args.format == "json":
        sys.stdout.write(fio.dumps(report))
    else:
        _emit_text(report, sys.stdout)
    return EXIT_OK if report["summary"]["fail"] == 0 else EXIT_SUITE_FAILED


def _resolve_single_mu(source: str, group: FiniteGroup) -> FuzzySubset:
    token = _mu_tokens(source)
    if len(token) != 1:
        raise FuzzautError("this command needs exactly one membership function")
    return resolve_mu(token[0], group)


def cmd_gen_mu(args) -> int:
    group = resolve_group(_strip_prefix(args.group, "builtin:"))
    payload = fio.mu_to_json(mu_from_strategy(group, args.strategy))
    if args.out:
        fio.save(args.out, payload)
    else:
        sys.stdout.write(fio.dumps(payload))
    return EXIT_OK


def cmd_inn(args) -> int:
    group = resolve_group(_strip_prefix(args.group, "builtin:"))
    mu = _resolve_single_mu(args.mu, group)
    inn = build_inn_group(group, mu)  # validates mu first
    iso, _ = zeta(group, mu)
    payload = {
        "classes": [list(cls) for cls in inn.classes],
        "table": [list(row) for row in inn.table.table],
        "iso_with_quotient": iso,
    }
    if args.format == "json":
        sys.stdout.write(fio.dumps(payload))
    else:
        print(f"group {group.name}: {len(inn.classes)} classes", file=sys.stdout)
        for i, cls in enumerate(inn.classes):
            print(f"  class {i}: labels {list(cls)}", file=sys.stdout)
        print("table:", file=sys.stdout)
        for row in inn.table.table:
            print("  " + " ".join(str(v) for v in row), file=sys.stdout)
        print(f"isomorphic to quotient by the center: {iso}", file=sys.stdout)
    return EXIT_OK if iso else EXIT_SUITE_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzaut",
        description="Exact verification of fuzzy automorphism laws on finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run law suites and report verdicts")
    verify.add_argument("--group", default="default",
                        help="builtin:<token>, file:<path>, or 'default' for the whole matrix")
    verify.add_argument("--mu", default="auto:all",
                        help="auto:chain, auto:class, auto:all, or file:<path>")
    verify.add_argument("--suite", default="all",
                        help="all | hom | aut | inner | induced | thm:<id>")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--ablate", choices=ABLATION_TOKENS, default=None)
    verify.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen-mu", help="write a canonical membership-function file")
    gen.add_argument("--group", required=True)
    gen.add_argument("--strategy", choices=("chain", "class"), required=True)
    gen.add_argument("--out", default=None, help="output path (default: stdout)")
    gen.set_defaults(func=cmd_gen_mu)

    inn = sub.add_parser("inn", help="report the class group of the labeled family")
    inn.add_argument("--group", required=True)
    inn.add_argument("--mu", default="auto:class")
    inn.add_argument("--format", choices=("text", "json"), default="text")
    inn.set_defaults(func=cmd_inn)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except FuzzautError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
