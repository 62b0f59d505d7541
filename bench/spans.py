"""Span tracer for the traced benchmark run (``--trace 1``).

``Tracer.install()`` wraps the public entry point of each fuzzaut layer named
in ``SPANS``.  The wrapper replaces the function at every fuzzaut module that
binds it, not only in the defining module: ``harness``, ``induced`` and
``automorphisms`` import ``is_fuzzy_homomorphism`` by name and ``io``
imports ``make_fuzzy_map`` and ``parse_grade`` by name, while
``maps.compose_maps``, ``homs.kernel`` and ``homs.lift_hom`` reach their
callees through their own module globals.  Wrapped ``lru_cache``
functions keep ``cache_info()``.

Each call records one span (name, start, end, parent) in memory.  When the
run ends, ``metrics()`` reduces the spans to calls and self time per span
name, where self time is a span's duration minus the time its child spans
cover, and ``write_spans()`` writes the raw spans out.  The functions in
``COUNTED`` and ``Fraction.__eq__`` are counted, not timed: they run hundreds
of thousands to millions of times per pass, and a span around each call
would inflate its caller's self time.
"""

from __future__ import annotations

import fractions
import functools
import sys
import time
from array import array
from collections import Counter

# span name -> (defining module, function name)
SPANS: dict[str, tuple[str, str]] = {
    "maps.compose": ("fuzzaut.maps", "compose"),
    "maps.relation_images": ("fuzzaut.maps", "relation_images"),
    "maps.make_fuzzy_map": ("fuzzaut.maps", "make_fuzzy_map"),
    "maps.inverse_map": ("fuzzaut.maps", "inverse_map"),
    "homs.is_fuzzy_homomorphism": ("fuzzaut.homs", "is_fuzzy_homomorphism"),
    "homs.lift_hom": ("fuzzaut.homs", "lift_hom"),
    "groups.make_group": ("fuzzaut.groups", "make_group"),
    "groups.normal_subgroups": ("fuzzaut.groups", "normal_subgroups"),
    "groups.crisp_automorphisms": ("fuzzaut.groups", "crisp_automorphisms"),
    "subsets.is_normal_fuzzy_subgroup": ("fuzzaut.subsets", "is_normal_fuzzy_subgroup"),
    "induced.induced_family_raw": ("fuzzaut.induced", "induced_family_raw"),
    "induced.build_inn_group": ("fuzzaut.induced", "build_inn_group"),
    "induced.zeta": ("fuzzaut.induced", "zeta"),
    "induced.theta": ("fuzzaut.induced", "theta"),
    "automorphisms.build_aut_class_group": ("fuzzaut.automorphisms", "build_aut_class_group"),
    "harness.run_campaign": ("fuzzaut.harness", "run_campaign"),
    "io.load_group": ("fuzzaut.io", "load_group"),
    "io.load_mu": ("fuzzaut.io", "load_mu"),
    "io.dumps": ("fuzzaut.io", "dumps"),
    "cli.main": ("fuzzaut.cli", "main"),
}

# name -> (defining module, function name); calls counted, no span
COUNTED: dict[str, tuple[str, str]] = {
    "grades.grade": ("fuzzaut.grades", "grade"),
    "grades.parse_grade": ("fuzzaut.grades", "parse_grade"),
}

# process-lifetime lru_caches whose hits the traced run reports
CACHES: dict[str, tuple[str, str]] = {
    "groups.all_subgroups": ("fuzzaut.groups", "all_subgroups"),
    "groups.normal_subgroups": ("fuzzaut.groups", "normal_subgroups"),
    "groups.crisp_automorphisms": ("fuzzaut.groups", "crisp_automorphisms"),
    "subsets.chain_strategy": ("fuzzaut.subsets", "chain_strategy"),
    "subsets.class_strategy": ("fuzzaut.subsets", "class_strategy"),
    "induced.make_induced": ("fuzzaut.induced", "make_induced"),
    "induced.identity_induced": ("fuzzaut.induced", "identity_induced"),
    "induced.build_inn_group": ("fuzzaut.induced", "build_inn_group"),
}

_CACHE_ATTRS = ("cache_info", "cache_clear", "cache_parameters")


def _suite_key(statement: str) -> str:
    """'Lemma 3.2' -> 'lemma-3.2'."""
    return statement.lower().replace(" ", "-")


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "fuzzaut" or n.startswith("fuzzaut.")]


def _rebind(modules: list, original, wrapper) -> None:
    """Replace ``original`` by ``wrapper`` at every module that binds it."""
    bound = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                bound += 1
    if not bound:
        raise RuntimeError(f"traced target {original.__module__}.{original.__name__} is bound nowhere")


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPANS)
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._caches: dict[str, object] = {}
        self._fraction_eq = [0]
        self.counts: Counter = Counter()
        self.suite_ms: Counter = Counter()

    # -- hooks that compute work counts from arguments and results -----------

    def _after_compose(self, args, result) -> None:
        g = args[1]
        self.counts["maps.cells_scanned"] += g.domain.order * g.codomain.order

    def _after_relation_images(self, args, result) -> None:
        rel = args[0]
        self.counts["maps.cells_scanned"] += rel.domain.order * rel.codomain.order

    def _after_hom_check(self, args, report) -> None:
        f = args[0]
        n, m = f.domain.order, f.codomain.order
        if report.verdict:
            cells = n * n * m * m
        else:
            w = report.witness
            cells = ((w.x1 * n + w.x2) * m + w.y + 1) * m
            self.counts["homs.is_fuzzy_homomorphism.rejected"] += 1
        self.counts["homs.is_fuzzy_homomorphism.cells"] += cells

    def _after_run_campaign(self, args, results) -> None:
        self.counts["harness.rows"] += len(results)
        for r in results:
            self.suite_ms[_suite_key(r.statement)] += r.ms

    # -- installation ----------------------------------------------------------

    def _wrap(self, name_id: int, fn, after):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in _CACHE_ATTRS:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def install(self) -> None:
        """Wrap every span target at every binding site; call after importing fuzzaut."""
        after = {
            "maps.compose": self._after_compose,
            "maps.relation_images": self._after_relation_images,
            "homs.is_fuzzy_homomorphism": self._after_hom_check,
            "harness.run_campaign": self._after_run_campaign,
        }
        for name, (module, attr) in CACHES.items():
            self._caches[name] = getattr(sys.modules[module], attr)
        for key in (
            "maps.cells_scanned",
            "homs.is_fuzzy_homomorphism.cells",
            "homs.is_fuzzy_homomorphism.rejected",
            "harness.rows",
        ):
            self.counts[key] = 0
        for statement in sys.modules["fuzzaut.harness"].STATEMENT_IDS:
            self.suite_ms[_suite_key(statement)] = 0
        modules = _package_modules()
        for name_id, (name, (module, attr)) in enumerate(SPANS.items()):
            original = getattr(sys.modules[module], attr)
            _rebind(modules, original, self._wrap(name_id, original, after.get(name)))
        for name, (module, attr) in COUNTED.items():
            original = getattr(sys.modules[module], attr)
            _rebind(modules, original, self._count(name, original))

        counter = self._fraction_eq
        eq = fractions.Fraction.__eq__

        def counted_eq(a, b):
            counter[0] += 1
            return eq(a, b)

        fractions.Fraction.__eq__ = counted_eq

    # -- reduction ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything recorded so far."""
        n = len(self.span_start)
        starts, ends, parents, names = self.span_start, self.span_end, self.span_parent, self.span_name
        covered = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = names[i]
            calls[k] += 1
            self_s[k] += ends[i] - starts[i] - covered[i]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_s[k]
        out.update(self.counts)
        out["grades.fraction_eq.calls"] = self._fraction_eq[0]
        for key, ms in self.suite_ms.items():
            out[f"harness.suite.{key}.ms"] = ms
        for name, cached in self._caches.items():
            out[f"{name}.cache_hits"] = cached.cache_info().hits
        return out

    def write_spans(self, path) -> None:
        """Raw spans as tab-separated lines: id, name, parent id, start s, end s."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
