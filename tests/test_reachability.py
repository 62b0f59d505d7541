"""Every function and method of the package runs under some command.

``INVOCATIONS`` is a fixed list of ``fuzzaut`` command lines.  They run
one after another in a fresh interpreter (this file, run as a script),
in process through ``cli.main``, under ``sys.setprofile``, which records
the code object of every Python frame entered; the package is imported
under the profiler too.  Every function and method defined at the top
level of a module in ``src/fuzzaut`` or in the body of one of its classes
must have been entered, or be on ``ALLOWED`` with the reason no command
enters it.  An ``ALLOWED`` entry that names nothing, or names what was
entered, fails as well, so the list shrinks with the code.

Print the names the invocations enter::

    PYTHONPATH=src python tests/test_reachability.py
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import tempfile
from functools import cached_property
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# V4's table under another name, and a mu over Q8 that is a fuzzy subgroup
# but not normal (tests/test_cli.py's MuNotNormal case).
GROUP_FILE = {"name": "K", "order": 4, "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]}
BAD_MU_FILE = {"group": "Q8", "grades": ["1", "1/2", "1/4", "1/4", "1/2", "1/4", "1/4", "1/4"]}

# (argv, expected exit); {dir} is a scratch directory holding the files above
INVOCATIONS = (
    (("verify",), 0),
    (("verify", "--format", "json"), 0),
    (("verify", "--group", "builtin:S4", "--format", "json"), 0),
    (("verify", "--group", "builtin:D8"), 0),
    (("verify", "--group", "builtin:direct_product(Z2,Q8)", "--format", "json"), 0),
    (("verify", "--ablate", "pointed"), 0),
    (("verify", "--ablate", "normal-mu", "--format", "json"), 0),
    (("verify", "--group", "file:{dir}/k.json"), 0),
    (("gen-mu", "--group", "S3", "--strategy", "chain", "--out", "{dir}/mu.json"), 0),
    (("gen-mu", "--group", "builtin:Q8", "--strategy", "class"), 0),
    (("verify", "--group", "builtin:S3", "--mu", "file:{dir}/mu.json", "--suite", "thm:3.1"), 0),
    (("verify", "--group", "builtin:Q8", "--mu", "file:{dir}/bad_mu.json"), 2),
    (("verify", "--group", "builtin:Z0"), 2),
    (("verify", "--group", "builtin:direct_product(Z5,Z5)", "--suite", "hom"), 1),
    (("inn", "--group", "Q8"), 0),
    (("inn", "--group", "file:{dir}/k.json", "--mu", "auto:chain", "--format", "json"), 0),
)

WITNESS = "witness-only: runs only after a check has failed, and no invocation fails one"
BENCH = "resolved by bench/spans.py or bench/worker.py"
GUARD = "Record guard: raises on a write to an immutable record"
REPR = "__repr__: for tests, error text and debuggers"

# qualified name -> why no invocation enters it
ALLOWED = {
    "automorphisms._first_failing_triple": WITNESS,
    "errors.Record.__delattr__": GUARD,
    "errors.Record.__repr__": REPR,
    "errors.Record.__setattr__": GUARD,
    "groups.FiniteGroup.__repr__": REPR,
    "groups._first_triple": WITNESS,
    "harness.default_campaign": BENCH,
    "homs.HomWitness.__str__": WITNESS,
    "homs._RowTables.clear": "memo bound: runs when a codomain's stores outgrow ROW_PRODUCT_MEMO_BOUND",
    "homs._first_violation": WITNESS,
    "homs._require_multiplicative": WITNESS,
    "induced.InnGroup.__repr__": REPR,
    "induced.identity_induced": BENCH,
    "induced.make_induced": BENCH,
    "maps.FuzzyMap.__init__": "builds the maps that tests write by hand; the library uses _built_map",
    "maps.FuzzyRelation.__repr__": REPR,
    "maps._check_composable": "guard: compose_maps calls it only for operands over distinct group "
                              "objects, to raise ShapeMismatch; maps.compose is " + BENCH,
    "maps._rank_cells": "helper of maps.make_fuzzy_map, " + BENCH,
    "maps.compose": BENCH,
    "maps.make_fuzzy_map": BENCH + ", and the documented way to build a map from grades",
    "maps.relation_images": BENCH,
}


def package_functions() -> dict:
    """Code object -> qualified name ("module.Class.method") of every function
    and method defined at the top level of a module of the package or in the
    body of one of its classes, decorated or not."""
    import fuzzaut

    found = {}

    def add(module, obj) -> None:
        obj = getattr(obj, "__func__", obj)  # classmethod, staticmethod
        obj = getattr(obj, "fget", obj)  # property
        obj = obj.func if isinstance(obj, cached_property) else obj
        obj = getattr(obj, "__wrapped__", obj)  # lru_cache, derived_cache
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            found[obj.__code__] = f"{module.__name__.split('.', 1)[1]}.{obj.__qualname__}"

    for info in pkgutil.iter_modules(fuzzaut.__path__):
        module = importlib.import_module(f"fuzzaut.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for member in vars(obj).values():
                    add(module, member)
            else:
                add(module, obj)
    return found


def entered_names() -> list[str]:
    """Run ``INVOCATIONS`` under the profiler and return the package's
    functions that were entered, by qualified name, sorted."""
    entered = set()

    def profile(frame, event, arg) -> None:
        if event == "call":
            entered.add(frame.f_code)

    with tempfile.TemporaryDirectory() as scratch:
        for name, obj in (("k.json", GROUP_FILE), ("bad_mu.json", BAD_MU_FILE)):
            Path(scratch, name).write_text(json.dumps(obj), encoding="utf-8")
        sys.setprofile(profile)
        try:
            from fuzzaut.cli import main

            for argv, expected in INVOCATIONS:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = main([arg.replace("{dir}", scratch) for arg in argv])
                if code != expected:
                    raise SystemExit(f"{argv} exited {code}, not {expected}:\n{sink.getvalue()}")
        finally:
            sys.setprofile(None)
    functions = package_functions()
    return sorted(functions[code] for code in entered if code in functions)


def run_in_fresh_interpreter() -> tuple[list[str], list[str]]:
    """(names entered, all names) from a child interpreter, so no cache that an
    earlier test warmed spares a function its call."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run([sys.executable, __file__], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names = json.loads(done.stdout)
    return names["entered"], names["all"]


def test_every_function_is_entered_or_allowed():
    entered, every = run_in_fresh_interpreter()
    never = sorted(set(every) - set(entered) - set(ALLOWED))
    assert not never, f"no invocation enters {never}; delete them or add each to ALLOWED with its reason"
    stale = sorted(set(ALLOWED) - set(every))
    assert not stale, f"ALLOWED names what the package no longer defines: {stale}"
    reached = sorted(set(ALLOWED) & set(entered))
    assert not reached, f"ALLOWED names what an invocation enters: {reached}"


if __name__ == "__main__":
    entered = entered_names()
    print(json.dumps({"entered": entered, "all": sorted(package_functions().values())}))
