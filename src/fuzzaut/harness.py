"""Campaign runner: every law in the catalog against every (group, mu) instance.

A campaign names groups and membership-function sources; the runner
resolves each group once into a ``_Group`` its instances share, builds one
``_Instance`` per distinct (group, mu), runs every selected law suite on one
instance before the next, and returns one result row per (law, mu source),
all sorted once: sources whose mu resolve equal (chain and class mu on Z1,
Z2, Z3, Z5, Z7, S3 and S4) share the instance's rows, each under its own
descriptor.  ``_row`` builds the rows of law suites and ablations alike.
Identical configurations give identical rows, and reports are byte-stable
for diffing.

The law catalog below is the traceability table: every suite the runner can
emit appears here with a one-line statement of what it checks.  A suite holds
no law of its own: it calls the one checker of its statement, which lives
with the object it checks (``homs`` for section 2, ``automorphisms`` for
section 3, ``induced`` for section 4) and which any caller may call too.
The suite only picks the instance's samples and prefixes the failing
sample's tag to the witness, or to the library error the sample raised; it
keeps no verdicts of its own.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from functools import cached_property, partial
from itertools import product
from typing import Callable, Iterable, Optional

from .automorphisms import (
    Products,
    check_associativity,
    check_automorphism,
    check_class_group,
    check_identity_law,
    check_inner_conjugate,
    check_inner_inverses,
    check_inner_products,
    check_inverse_law,
    composite_table,
)
from .errors import FuzzautError, Record, Verdict, clear_derived
from .groups import (
    FiniteGroup,
    all_subgroups,
    builtin_group,
    crisp_automorphisms,
    normal_subgroups,
    quotient_group,
    register_group,
)
from .homs import check_theorem_2_1, check_theorem_2_2, is_fuzzy_homomorphism, lift_hom
from .induced import (
    check_identity_label,
    check_induced_bijective,
    check_induced_homomorphism,
    check_inverse_labels,
    check_label_products,
    check_theorem_4_1,
    check_triple_products,
    induced_family_raw,
    induced_map,
    theta,
    zeta,
)
from .maps import FuzzyMap, MultipleUnitEntries, compose_maps, inverse_map
from .subsets import (
    FuzzySubset,
    class_strategy,
    flat_mu,
    gen_mu_chain,
    is_normal_fuzzy_subgroup,
    is_pointed,
    mu_from_strategy,
    require_valid_mu,
)


class ConfigInvalid(FuzzautError):
    """A campaign names a statement that the catalog lacks."""


class UnknownToken(FuzzautError):
    pass


STATEMENTS: dict[str, str] = {
    "Theorem 2.1": "fuzzy homomorphisms: images multiply, identities pair with grade 1, "
    "inverse images invert, unit entries close under inversion",
    "Theorem 2.2": "the kernel is a normal subgroup; one-one exactly when the kernel is trivial",
    "Lemma 3.1": "composition of fuzzy automorphisms is a fuzzy automorphism",
    "Lemma 3.2": "composition is associative up to fuzzy-image equality",
    "Lemma 3.3": "the crisp identity map is a two-sided identity up to fuzzy-image equality",
    "Lemma 3.4": "the transpose is a bijective map and a two-sided inverse up to fuzzy-image equality",
    "Lemma 3.5": "transpose composed with the map is a fuzzy homomorphism",
    "Lemma 3.6": "the transpose of a bijective fuzzy homomorphism is a fuzzy automorphism",
    "Lemma 3.7": "inner automorphisms compose to the inner automorphism of the reversed product",
    "Lemma 3.8": "the inverse of an inner automorphism is the inner automorphism of the inverse",
    "Lemma 3.9": "inner automorphisms are closed under conjugation by any fuzzy automorphism",
    "Theorem 3.1": "skeleton classes of fuzzy automorphisms form a group matching the crisp "
    "automorphism group over the generated samples",
    "Lemma 4.1": "every graded conjugation map is a fuzzy homomorphism",
    "Lemma 4.2": "graded conjugation maps are one-one, onto and class preserving",
    "Lemma 4.3": "graded conjugation maps compose by reversed label product with exact matrix equality",
    "Lemma 4.4": "triple compositions collapse to the reversed triple label product",
    "Lemma 4.5": "the identity-labeled map is a two-sided identity with exact matrix equality",
    "Lemma 4.6": "the inverse-labeled map is a two-sided inverse returning the identity matrix",
    "Theorem 4.1": "the labeled family forms a group under composition",
    "Theorem 4.2": "the quotient by the center is isomorphic to the class group of the labeled family",
    "Theorem 4.3": "the graded evaluation map is a bijective fuzzy homomorphism onto the labeled family",
}

STATEMENT_IDS: tuple[str, ...] = tuple(STATEMENTS)

SECTION_4_STATEMENTS = tuple(s for s in STATEMENT_IDS if s.split()[1].startswith("4"))

SUITE_GROUPS: dict[str, tuple[str, ...]] = {
    "all": STATEMENT_IDS,
    "hom": ("Theorem 2.1", "Theorem 2.2"),
    "aut": ("Lemma 3.1", "Lemma 3.2", "Lemma 3.3", "Lemma 3.4", "Lemma 3.5", "Lemma 3.6", "Theorem 3.1"),
    "inner": ("Lemma 3.7", "Lemma 3.8", "Lemma 3.9"),
    "induced": SECTION_4_STATEMENTS,
}

DEFAULT_GROUPS: tuple[str, ...] = (
    "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "V4", "S3", "D4", "Q8",
)

ABLATION_TOKENS = ("pointed", "normal-mu")


class Campaign(Record):
    """Deterministic run configuration.

    ``seed`` is carried for reproducibility bookkeeping; the default suites
    are fully exhaustive and draw no random samples.
    """

    groups: tuple[str, ...] = DEFAULT_GROUPS
    mu_sources: tuple[str, ...] = ("chain", "class")
    suites: tuple[str, ...] = STATEMENT_IDS
    seed: int = 0


class SuiteResult(Record):
    """One report row; ``ms``, the row's time, takes no part in equality."""

    _compared = ("statement", "instance", "verdict", "witness", "expected_failure")

    statement: str
    instance: str
    verdict: bool
    witness: Optional[str]
    ms: int = 0
    expected_failure: bool = False


def default_campaign() -> Campaign:
    return Campaign()


def resolve_group(token: str) -> FiniteGroup:
    if token.startswith("file:"):
        from .io import load_group

        return load_group(token[len("file:") :])
    return builtin_group(token)


def resolve_mu(token: str, group: FiniteGroup) -> FuzzySubset:
    if token.startswith("file:"):
        from .io import load_mu

        return load_mu(token[len("file:") :], group)
    return mu_from_strategy(group, token)


class _Group:
    """One campaign group, resolved once, with the mu-free quotient lifts its instances
    share; it lives one campaign, as every derived cache does, while the group is kept.
    It is registered as its table's canonical object (``groups.register_group``).
    A ``FuzzautError`` raised while the group is resolved propagates unchanged."""

    def __init__(self, token: str):
        self.group = resolve_group(token)
        register_group(self.group)

    @cached_property
    def quotient_lifts(self) -> list[tuple[str, FuzzyMap]]:
        """Coset maps onto every proper quotient, graded canonically there."""
        out = []
        for n_set in normal_subgroups(self.group):
            if len(n_set) == 1:
                continue
            quotient, coset_map = quotient_group(self.group, n_set)
            mu_q = class_strategy(quotient)
            out.append((f"lift:quot|N|={len(n_set)}", lift_hom(coset_map, mu_q, self.group)))
        return out


# -- per-instance context -----------------------------------------------------


class _Instance:
    """One (group, mu source) cell of the campaign matrix: whatever reads mu, cached.

    Mu is resolved and validated once, here.  A ``FuzzautError`` doing so is
    bad input and propagates unchanged; a ``RuntimeError`` is a library
    defect, kept in ``mu_error`` to fail every row of the instance.
    ``run_campaign`` runs the suites on the first instance of each distinct
    mu only; a later source with an equal mu builds nothing past mu itself.
    The section 3 samples are the crisp automorphisms lifted through mu.  The
    labeled family adds none: for a normal mu, f_g is the lift of x -> g^-1 x g.
    Section 4 and Lemmas 3.7 to 3.9 read the family itself (``induced_raw``);
    Lemmas 3.7 and 4.4 read the ``composite_table`` of its representatives
    (``inner_products``), and Lemmas 3.1 and 3.2 and Theorem 3.1 that of the
    samples (``aut_products``).
    """

    def __init__(self, shared: _Group, mu_token: str):
        self.shared, self.group = shared, shared.group
        self.descriptor = f"{self.group.name}|mu={mu_token}"
        self.mu: Optional[FuzzySubset] = None
        self.mu_error: Optional[str] = None
        try:
            mu = resolve_mu(mu_token, self.group)
            require_valid_mu(mu)
            self.mu = mu
        except RuntimeError as exc:
            self.mu_error = f"{type(exc).__name__}: {exc}"

    @cached_property
    def induced_raw(self) -> list[FuzzyMap]:
        return induced_family_raw(self.group, self.mu)

    @cached_property
    def induced_reps(self) -> list[int]:
        """Least label per distinct skeleton; labels in one center coset share both."""
        seen: dict[tuple[int, ...], int] = {}
        for g, fmap in enumerate(self.induced_raw):
            seen.setdefault(fmap.images, g)
        return sorted(seen.values())

    @cached_property
    def inner_products(self) -> Products:
        """``composite_table`` of the representatives' maps, for Lemmas 3.7 and 4.4."""
        return composite_table([self.induced_raw[g] for g in self.induced_reps])

    @cached_property
    def aut_samples(self) -> list[tuple[str, FuzzyMap]]:
        """Every crisp automorphism lifted through mu, in automorphism order."""
        return [
            (f"lift:aut{i}", lift_hom(sigma, self.mu, self.group))
            for i, sigma in enumerate(crisp_automorphisms(self.group))
        ]

    @cached_property
    def hom_samples(self) -> list[tuple[str, FuzzyMap]]:
        return self.aut_samples + self.shared.quotient_lifts

    @cached_property
    def aut_transposes(self) -> list:
        """Each sample's transpose, or, where ``inverse_map`` raises, ``_attempt``'s failure."""
        return [_attempt(inverse_map, f) for _, f in self.aut_samples]

    @cached_property
    def aut_products(self) -> Products:
        """``composite_table`` of ``aut_samples``, for Lemmas 3.1 and 3.2 and Theorem 3.1."""
        return composite_table([f for _, f in self.aut_samples])


# -- law suites ---------------------------------------------------------------


def _attempt(check: Callable[..., Verdict], *args) -> Verdict:
    """``check(*args)``; a library error it raises fails, its type and text the witness."""
    try:
        return check(*args)
    except (FuzzautError, RuntimeError) as exc:
        return False, f"{type(exc).__name__}: {exc}"


def _first_failure(samples: Iterable[tuple[str, object]], check: Callable[..., Verdict]) -> Verdict:
    """``check`` each (tag, sample) in turn; the first failure, or library error
    raised, with the sample's tag in front of its witness."""
    for tag, sample in samples:
        verdict, witness = _attempt(check, sample)
        if not verdict:
            return False, f"{tag}: {witness}"
    return True, None


def _first_failure_transposed(ctx: _Instance, check: Callable[..., Verdict]) -> Verdict:
    """``_first_failure`` of ``check(f, f_inv)`` over the samples and ``aut_transposes``;
    a sample with no transpose fails with its error's text."""
    for (tag, f), f_inv in zip(ctx.aut_samples, ctx.aut_transposes):
        verdict, witness = f_inv if isinstance(f_inv, tuple) else _attempt(check, f, f_inv)
        if not verdict:
            return False, f"{tag}: {witness}"
    return True, None


def _suite_lemma_3_1(ctx: _Instance):
    composites, cells, _ = ctx.aut_products
    verdicts = [check_automorphism(h) for h in composites]  # a function of the map alone
    # composites are numbered by first appearance, so the least failing one names the pair
    c = next((c for c, (verdict, _) in enumerate(verdicts) if not verdict), None)
    if c is None:
        return True, None
    i, j = next((i, row.index(c)) for i, row in enumerate(cells) if c in row)
    tags = [tag for tag, _ in ctx.aut_samples]
    return False, f"({tags[i]}) . ({tags[j]}): {verdicts[c][1]}"


def _inner_conjugate(f_inv: FuzzyMap, f_g: FuzzyMap, f: FuzzyMap) -> Verdict:
    return check_inner_conjugate(compose_maps(f_inv, compose_maps(f_g, f)))


def _suite_lemma_3_9(ctx: _Instance):
    """The conjugate of each representative's map by each sample, tagged with both;
    a sample with no transpose fails under its own tag."""
    family = ctx.induced_raw
    for (tag, f), f_inv in zip(ctx.aut_samples, ctx.aut_transposes):
        if isinstance(f_inv, tuple):
            return False, f"{tag}: {f_inv[1]}"
        for g in ctx.induced_reps:
            verdict, witness = _attempt(_inner_conjugate, f_inv, family[g], f)
            if not verdict:
                return False, f"conjugate of label {g} by {tag}: {witness}"
    return True, None


_SUITES: dict[str, Callable[[_Instance], Verdict]] = {
    "Theorem 2.1": lambda ctx: _first_failure(ctx.hom_samples, check_theorem_2_1),
    "Theorem 2.2": lambda ctx: _first_failure(ctx.hom_samples, check_theorem_2_2),
    "Lemma 3.1": _suite_lemma_3_1,
    "Lemma 3.2": lambda ctx: check_associativity(dict(ctx.aut_samples), ctx.aut_products),
    "Lemma 3.3": lambda ctx: _first_failure(ctx.aut_samples, check_identity_law),
    "Lemma 3.4": lambda ctx: _first_failure_transposed(ctx, check_inverse_law),
    "Lemma 3.5": lambda ctx: _first_failure_transposed(
        ctx, lambda f, f_inv: is_fuzzy_homomorphism(compose_maps(f_inv, f))
    ),
    "Lemma 3.6": lambda ctx: _first_failure_transposed(
        ctx, lambda f, f_inv: check_automorphism(f_inv)
    ),
    "Lemma 3.7": lambda ctx: check_inner_products(
        ctx.group, ctx.induced_raw, ctx.induced_reps, ctx.inner_products
    ),
    "Lemma 3.8": lambda ctx: check_inner_inverses(ctx.group, ctx.induced_raw, ctx.induced_reps),
    "Lemma 3.9": _suite_lemma_3_9,
    "Theorem 3.1": lambda ctx: check_class_group([f for _, f in ctx.aut_samples], ctx.aut_products),
    "Lemma 4.1": lambda ctx: check_induced_homomorphism(
        ctx.group, ctx.induced_raw, ctx.group.elements
    ),
    "Lemma 4.2": lambda ctx: check_induced_bijective(
        ctx.group, ctx.induced_raw, ctx.group.elements
    ),
    "Lemma 4.3": lambda ctx: check_label_products(
        ctx.group, ctx.induced_raw, product(ctx.group.elements, repeat=2)
    ),
    "Lemma 4.4": lambda ctx: check_triple_products(
        ctx.group, ctx.induced_raw, ctx.induced_reps, ctx.inner_products
    ),
    "Lemma 4.5": lambda ctx: check_identity_label(ctx.mu, ctx.induced_raw, ctx.group.elements),
    "Lemma 4.6": lambda ctx: check_inverse_labels(ctx.group, ctx.induced_raw, ctx.induced_reps),
    "Theorem 4.1": lambda ctx: check_theorem_4_1(ctx.group, ctx.mu),
    "Theorem 4.2": lambda ctx: zeta(ctx.group, ctx.mu),
    "Theorem 4.3": lambda ctx: theta(ctx.group, ctx.mu),
}


def _row(statement: str, instance: str, check: Callable[[], Verdict],
         expected_failure: bool = False) -> SuiteResult:
    """Time ``check()`` into a row; a library error fails the row as its witness."""
    start = time.perf_counter()
    verdict, witness = _attempt(check)
    ms = int((time.perf_counter() - start) * 1000)
    return SuiteResult(statement, instance, verdict, witness, ms, expected_failure)


@contextmanager
def _campaign_scope():
    """Pause the cyclic collector, which would find no cycles to free; on return
    or raise, empty every derived cache and put back the caller's ``gc.isenabled()``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        clear_derived()
        if enabled:
            gc.enable()


def run_campaign(campaign: Campaign) -> list[SuiteResult]:
    """Run every selected law suite once per distinct (group, mu), one row per source.

    Each group is resolved into one ``_Group``, whose quotient lifts its
    instances share, and then each of its mu sources, in campaign order,
    before any suite runs; a ``FuzzautError`` doing so (an unknown group, a
    bad file, a mu that is no normal fuzzy subgroup pointed at the identity)
    is bad input and propagates, so the first bad input raises.  A law's
    verdict and witness depend on the group and mu's grades alone, not on
    the token that named mu, so instances are keyed by their resolved mu
    (``FuzzySubset`` equality: the group, name and table, and the
    ``Fraction`` grades).  The first source of each key runs every selected
    statement, all of them before the next instance, while its samples and
    its codomains' row-product memos are warm; each later source with an
    equal mu gets those rows under its own descriptor, with ``ms=0``, as no
    time was spent on them.  A ``RuntimeError`` while mu is built is a
    library defect: it fails every selected row of its instance, which is
    never merged.  The rows are sorted once.  Nothing certified outlives
    the campaign, as it would hide a seeded defect: every ``derived_cache``
    is emptied when it returns or raises (not on entry, so what a caller
    warmed serves it).  The cyclic collector is paused (``_campaign_scope``).
    """
    with _campaign_scope():
        unknown = [s for s in campaign.suites if s not in _SUITES]
        if unknown:
            raise ConfigInvalid(f"unknown statement ids: {unknown}")
        contexts = [_Instance(shared, mu) for shared in map(_Group, campaign.groups)
                    for mu in campaign.mu_sources]
        results = []
        ran: dict[FuzzySubset, list[SuiteResult]] = {}
        for ctx in contexts:  # all kept alive until the sort: freeing them early measured slower
            if ctx.mu_error is not None:
                results.extend(SuiteResult(statement, ctx.descriptor, False, ctx.mu_error)
                               for statement in campaign.suites)
            elif ctx.mu in ran:
                results.extend(SuiteResult(r.statement, ctx.descriptor, r.verdict, r.witness, 0,
                                           r.expected_failure) for r in ran[ctx.mu])
            else:
                ran[ctx.mu] = [_row(statement, ctx.descriptor, partial(_SUITES[statement], ctx))
                               for statement in campaign.suites]
                results.extend(ran[ctx.mu])
        results.sort(key=lambda r: (r.statement, r.instance))
        return results


# -- hypothesis ablation ------------------------------------------------------


def _ablate_pointed(group: FiniteGroup) -> tuple[bool, str]:
    """Grade everything 1 and watch the unit-entry rule of the construction."""
    mu = flat_mu(group)
    try:
        for g in group.elements:
            induced_map(mu, g)
    except MultipleUnitEntries as exc:
        return True, f"MultipleUnitEntries: {exc} (expected failure)"
    return False, "construction stayed a fuzzy map; uniqueness cannot fail here"


def _ablate_normality(group: FiniteGroup, non_normal: frozenset) -> tuple[bool, str]:
    """Chain mu over the least non-normal subgroup; expect the exact law 4.3 to break."""
    chain = [frozenset({group.identity}), non_normal, frozenset(group.elements)]
    mu = gen_mu_chain(group, chain, ("1", "1/2", "1/4"))
    ok, _ = is_normal_fuzzy_subgroup(mu)
    family = induced_family_raw(group, mu)
    _, counterexample = check_label_products(group, family, product(group.elements, repeat=2))
    found = (f"Lemma 4.3 counterexample: {counterexample} (expected failure)" if counterexample
             else "no counterexample found")
    subgroup = tuple(sorted(non_normal))
    return (not ok and counterexample is not None,
            f"mu graded over the non-normal subgroup {subgroup}; {found}")


def ablation(campaign: Campaign, drop: Optional[str]) -> list[SuiteResult]:
    """Re-run constructions with one hypothesis dropped.

    A row's verdict is True when the predicted violation actually occurred;
    rows carry ``expected_failure`` so recorded violations stay separate from
    defect failures.  A group on which the hypothesis cannot be violated is
    skipped: one with no non-normal subgroup, or whose flat mu is already
    pointed (the trivial group).  Groups resolve through ``_Group``, and no mu
    is read, since each probe builds its own.  Every derived cache is emptied
    when it returns or raises, and the collector paused, as by ``run_campaign``.
    """
    if drop is None:
        return run_campaign(campaign)
    if drop not in ABLATION_TOKENS:
        raise UnknownToken(f"unknown ablation token {drop!r}; expected one of {ABLATION_TOKENS}")
    with _campaign_scope():
        results = []
        for group in (_Group(token).group for token in campaign.groups):
            if drop == "pointed":
                if not is_pointed(flat_mu(group)):  # only the trivial group's is, decided before the row
                    results.append(_row("Ablation(pointed)", f"{group.name}|mu=flat",
                                        partial(_ablate_pointed, group), True))
                continue
            normal = set(normal_subgroups(group))
            non_normal = next((s for s in all_subgroups(group) if s not in normal), None)
            if non_normal is not None:  # the least non-normal subgroup, decided before the row
                results.append(_row("Ablation(normal-mu)", f"{group.name}|mu=chain-non-normal",
                                    partial(_ablate_normality, group, non_normal), True))
        results.sort(key=lambda r: (r.statement, r.instance))
        return results


# -- reports ------------------------------------------------------------------


def campaign_report(
    campaign: Campaign, results: list[SuiteResult], ablate: Optional[str] = None
) -> dict:
    """JSON-ready report; timings are zeroed so reports diff cleanly."""
    return {
        "campaign": {
            "groups": list(campaign.groups),
            "mu": list(campaign.mu_sources),
            "suites": list(campaign.suites),
            "seed": campaign.seed,
            "ablate": ablate,
        },
        "results": [
            {
                "statement": r.statement,
                "instance": r.instance,
                "verdict": r.verdict,
                "witness": r.witness,
                "ms": 0,
                "expected": r.expected_failure,
            }
            for r in results
        ],
        "summary": {
            "pass": sum(1 for r in results if r.verdict),
            "fail": sum(1 for r in results if not r.verdict),
        },
    }
