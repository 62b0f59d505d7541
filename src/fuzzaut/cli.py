"""Command-line front end.

Three subcommands: ``verify`` runs law campaigns, ``gen-mu`` writes canonical
membership-function files, ``inn`` reports the class group of the labeled
family.  Reports go to stdout, diagnostics to stderr.  Exit codes are a
stable contract: 0 all verdicts pass, 1 at least one suite failed, 2 input or
configuration error, 3 a defect of the library: an exception that is no
``FuzzautError`` reached ``main``, which prints its traceback to stderr.
``verify`` resolves no input itself: the campaign does, once, and a
``FuzzautError`` it raises before any suite runs exits 2.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
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
EXIT_INTERNAL = 3


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


_REQUIRED, _FORMATS = object(), ("text", "json")

# command -> (handler, summary, {option: (default, metavar or choices, help)}); an option
# whose default is _REQUIRED must be given, and one whose default is an int takes an int
COMMANDS = {
    "verify": (cmd_verify, "run law suites and report verdicts", {
        "group": ("default", "SRC", "builtin:<token>, file:<path>, or 'default' for the whole matrix"),
        "mu": ("auto:all", "SRC", "auto:chain, auto:class, auto:all, or file:<path>"),
        "suite": ("all", "S", "all | hom | aut | inner | induced | thm:<id>"),
        "format": ("text", _FORMATS, "report format (default: text)"),
        "seed": (0, "N", "campaign seed, echoed in the report (default: 0)"),
        "ablate": (None, ABLATION_TOKENS, "run one ablation instead of the suites"),
    }),
    "gen-mu": (cmd_gen_mu, "write a canonical membership-function file", {
        "group": (_REQUIRED, "SRC", "builtin:<token> or file:<path>"),
        "strategy": (_REQUIRED, ("chain", "class"), "the canonical strategy"),
        "out": (None, "PATH", "output path (default: stdout)"),
    }),
    "inn": (cmd_inn, "report the class group of the labeled family", {
        "group": (_REQUIRED, "SRC", "builtin:<token> or file:<path>"),
        "mu": ("auto:class", "SRC", "auto:chain, auto:class, or file:<path>"),
        "format": ("text", _FORMATS, "output format (default: text)"),
    }),
}


class _UsageError(Exception):
    """A command line that does not parse; the message follows ``fuzzaut: error:``."""


def _usage() -> str:
    """The README synopsis: one line per command, optional options in brackets."""
    lines = []
    for command, (_, _, options) in COMMANDS.items():
        words = [f"fuzzaut {command}"]
        for name, (default, kind, _) in options.items():
            word = f"--{name} {kind if isinstance(kind, str) else '|'.join(kind)}"
            words.append(word if default is _REQUIRED else f"[{word}]")
        lines.append(" ".join(words))
    return "usage: " + "\n       ".join(lines)


def _help(args) -> int:
    print(_usage())
    for command, (_, summary, options) in COMMANDS.items():
        print(f"\n{command}: {summary}", *(f"  --{o:<9} {spec[2]}" for o, spec in options.items()),
              sep="\n")
    return EXIT_OK


def _is_option(token: str) -> bool:
    # as argparse reads it: "-", a negative number and a token with a space before any
    # "=" are values
    whole, dot, fraction = token[1:].partition(".")
    number = (whole.isdecimal() or dot and not whole) and (fraction.isdecimal() or not dot)
    return token[:1] == "-" and token != "-" and " " not in token.partition("=")[0] and not number


def _choices(kind) -> str:
    return ", ".join(map(repr, kind))


def _parse(argv: list[str]):
    """``(handler, args)`` from ``argv``, read as argparse read it; raises ``_UsageError``.
    Like argparse, it names unrecognized tokens only once the rest has parsed."""
    command, options, values, extras = None, {}, {}, []
    while argv:
        token = argv.pop(0)
        if not _is_option(token):
            if command is None and token not in COMMANDS:
                choices = _choices(COMMANDS)
                raise _UsageError(f"argument command: invalid choice: {token!r} (choose from {choices})")
            if command is None:
                command, options = token, COMMANDS[token][2]
                values = {name: spec[0] for name, spec in options.items()}
            else:
                extras.append(token)
            continue
        flag, eq, value = token.partition("=")
        name = "help" if flag == "-h" else flag[2:] if flag[:2] == "--" else ""
        matches = [o for o in ("help", *options) if name and o.startswith(name)]
        matches = [name] if name in matches else matches
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {token} could match --" + ", --".join(matches))
        if matches == ["help"]:
            return _help, None
        if not matches:
            extras.append(token)
            continue
        name, (default, kind, _) = matches[0], options[matches[0]]
        if not eq:
            if not argv or _is_option(argv[0]):
                raise _UsageError(f"argument --{name}: expected one argument")
            value = argv.pop(0)
        if not isinstance(kind, str) and value not in kind:
            raise _UsageError(f"argument --{name}: invalid choice: {value!r} (choose from {_choices(kind)})")
        try:
            values[name] = int(value) if type(default) is int else value
        except ValueError:
            raise _UsageError(f"argument --{name}: invalid int value: {value!r}") from None
    missing = ["command"] if command is None else [f"--{o}" for o, v in values.items() if v is _REQUIRED]
    if missing:
        raise _UsageError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise _UsageError("unrecognized arguments: " + " ".join(extras))
    return COMMANDS[command][0], SimpleNamespace(**values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        handler, args = _parse(list(sys.argv[1:] if argv is None else argv))
        return handler(args)
    except _UsageError as exc:
        print(f"{_usage()}\nfuzzaut: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FuzzautError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
