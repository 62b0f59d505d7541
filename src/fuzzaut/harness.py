"""Campaign runner: every law in the catalog against every (group, mu) instance.

A campaign names groups and membership-function sources; the runner
resolves each group once into a ``_Group`` its instances share, builds each
(group, mu) ``_Instance`` once, runs every selected law suite on one instance
before the next, and returns one result row per (law, instance), all sorted
once.  ``_row`` builds the rows of law suites and ablations alike.  Identical
configurations give identical rows, and reports are byte-stable for diffing.

The law catalog below is the traceability table: every suite the runner can
emit appears here with a one-line statement of what it checks.  A suite holds
no law of its own: it calls the one checker of its statement, which lives
with the object it checks (``homs`` for section 2, ``automorphisms`` for
section 3, ``induced`` for section 4) and which the raising constructors
there call too.  The suite only picks the instance's samples and prefixes
the failing sample's tag to the witness; it keeps no verdicts of its own.
"""

from __future__ import annotations

import time
from functools import cached_property, partial
from itertools import product
from typing import Callable, Iterable, Optional

from .automorphisms import (
    Products,
    Verdict,
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
from .errors import FuzzautError, Record, clear_derived
from .groups import (
    ElementSubset,
    FiniteGroup,
    all_subgroups,
    builtin_group,
    crisp_automorphisms,
    normal_subgroups,
    quotient_group,
)
from .homs import check_theorem_2_1, check_theorem_2_2, is_fuzzy_homomorphism, lift_hom
from .induced import (
    build_inn_group,
    check_identity_label,
    check_induced_bijective,
    check_induced_homomorphism,
    check_inverse_labels,
    check_label_products,
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
    mu_from_strategy,
    require_valid_mu,
)


class ConfigInvalid(FuzzautError):
    pass


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
    share; it lives one campaign, as every derived cache does, while the group is kept."""

    def __init__(self, token: str):
        try:
            self.group = resolve_group(token)
        except FuzzautError as exc:
            raise ConfigInvalid(f"cannot resolve group {token!r}: {exc}") from exc

    @cached_property
    def quotient_lifts(self) -> list[tuple[str, FuzzyMap]]:
        """Coset maps onto every proper quotient, graded canonically there."""
        out = []
        for n_set in normal_subgroups(self.group):
            if len(n_set) == 1:
                continue
            subset = ElementSubset.from_indices(self.group, sorted(n_set))
            quotient, coset_map = quotient_group(self.group, subset)
            mu_q = class_strategy(quotient)
            out.append((f"lift:quot|N|={len(n_set)}", lift_hom(coset_map, mu_q, self.group)))
        return out


# -- per-instance context -----------------------------------------------------


class _Instance:
    """One (group, mu) cell of the campaign matrix: whatever reads mu, cached.

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
        self.failing: tuple[str, ...] = ()  # rows failed for want of mu: section 4, or all
        try:
            mu = resolve_mu(mu_token, self.group)
            require_valid_mu(mu)
            self.mu = mu
        except (FuzzautError, RuntimeError) as exc:
            self.mu_error = f"{type(exc).__name__}: {exc}"
            self.failing = SECTION_4_STATEMENTS if isinstance(exc, FuzzautError) else STATEMENT_IDS

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
    def aut_products(self) -> Products:
        """``composite_table`` of ``aut_samples``, for Lemmas 3.1 and 3.2 and Theorem 3.1."""
        return composite_table([f for _, f in self.aut_samples])


# -- law suites ---------------------------------------------------------------


def _first_failure(checks: Iterable[tuple[str, Iterable]]) -> tuple[bool, Optional[str]]:
    """Consume (tag, (verdict, witness)) pairs; the first failure, its witness tagged."""
    for tag, (verdict, witness) in checks:
        if not verdict:
            return False, f"{tag}: {witness}"
    return True, None


def _suite_thm_2_1(ctx: _Instance):
    names = ("images multiply", "identity pair has grade 1", "inverses map to inverses",
             "unit entries invert")
    for tag, fmap in ctx.hom_samples:
        props = check_theorem_2_1(fmap)
        if not all(props):
            failed = ", ".join(n for n, p in zip(names, props) if not p)
            return False, f"{tag}: failed {failed}"
    return True, None


def _suite_thm_2_2(ctx: _Instance):
    for tag, fmap in ctx.hom_samples:
        report = check_theorem_2_2(fmap)
        if not report.verdict:
            return False, (
                f"{tag}: kernel={report.kernel.indices} normal={report.kernel_is_normal} "
                f"one_one={report.one_one} trivial={report.kernel_trivial}"
            )
    return True, None


def _suite_lemma_3_1(ctx: _Instance):
    composites, cells, _ = ctx.aut_products
    verdicts = [check_automorphism(h) for h in composites]  # a function of the map alone
    tags = [tag for tag, _ in ctx.aut_samples]
    pairs = ((i, j, c) for i, row in enumerate(cells) for j, c in enumerate(row))
    return _first_failure((f"({tags[i]}) . ({tags[j]})", verdicts[c]) for i, j, c in pairs)


def _suite_thm_4_1(ctx: _Instance):
    # build_inn_group raises LawViolation unless the classes index the center quotient
    build_inn_group(ctx.group, ctx.mu)
    return True, None


def _suite_thm_4_2(ctx: _Instance):
    check = zeta(ctx.group, ctx.mu)
    return check.ok, check.witness


def _suite_thm_4_3(ctx: _Instance):
    check = theta(ctx.group, ctx.mu)
    return check.ok, check.witness


_SUITES: dict[str, Callable[[_Instance], Verdict]] = {
    "Theorem 2.1": _suite_thm_2_1,
    "Theorem 2.2": _suite_thm_2_2,
    "Lemma 3.1": _suite_lemma_3_1,
    "Lemma 3.2": lambda ctx: check_associativity(dict(ctx.aut_samples), ctx.aut_products),
    "Lemma 3.3": lambda ctx: _first_failure(
        (tag, check_identity_law(f)) for tag, f in ctx.aut_samples
    ),
    "Lemma 3.4": lambda ctx: _first_failure(
        (tag, check_inverse_law(f)) for tag, f in ctx.aut_samples
    ),
    "Lemma 3.5": lambda ctx: _first_failure(
        (tag, is_fuzzy_homomorphism(compose_maps(inverse_map(f), f)))
        for tag, f in ctx.aut_samples
    ),
    "Lemma 3.6": lambda ctx: _first_failure(
        (tag, check_automorphism(inverse_map(f))) for tag, f in ctx.aut_samples
    ),
    "Lemma 3.7": lambda ctx: check_inner_products(
        ctx.group, ctx.induced_raw, ctx.induced_reps, ctx.inner_products
    ),
    "Lemma 3.8": lambda ctx: check_inner_inverses(ctx.group, ctx.induced_raw, ctx.induced_reps),
    "Lemma 3.9": lambda ctx: _first_failure(
        (f"conjugate of label {g} by {tag}",
         check_inner_conjugate(compose_maps(f_inv, compose_maps(ctx.induced_raw[g], f))))
        for tag, f in ctx.aut_samples for f_inv in (inverse_map(f),) for g in ctx.induced_reps
    ),
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
    "Theorem 4.1": _suite_thm_4_1,
    "Theorem 4.2": _suite_thm_4_2,
    "Theorem 4.3": _suite_thm_4_3,
}


def _row(statement: str, instance: str, check: Callable[[], Verdict],
         expected_failure: bool = False) -> SuiteResult:
    """Time ``check()`` into a row; a library error fails the row as its witness."""
    start = time.perf_counter()
    try:
        verdict, witness = check()
    except (FuzzautError, RuntimeError) as exc:
        verdict, witness = False, f"{type(exc).__name__}: {exc}"
    ms = int((time.perf_counter() - start) * 1000)
    return SuiteResult(statement, instance, verdict, witness, ms, expected_failure)


def run_campaign(campaign: Campaign) -> list[SuiteResult]:
    """Run every selected law suite over the campaign's instance matrix.

    Every group is resolved first into one ``_Group``, whose quotient lifts
    its instances share.  Nothing certified outlives the campaign, as it
    would hide a seeded defect: every ``derived_cache`` is emptied when it
    returns or raises (not on entry, so what a caller warmed serves it).
    All selected statements of one instance run before the next, while its
    samples and its codomains' row-product memos are warm, and the rows are
    sorted once.  An instance whose mu fails validation fails the
    graded-conjugation suites (which need it) and is skipped by the others,
    whose samples cannot be built; a ``RuntimeError`` while mu is built is a
    library defect and fails them all.
    """
    try:
        unknown = [s for s in campaign.suites if s not in _SUITES]
        if unknown:
            raise ConfigInvalid(f"unknown statement ids: {unknown}")
        groups = [_Group(token) for token in campaign.groups]
        contexts = [_Instance(shared, mu) for shared in groups for mu in campaign.mu_sources]
        results = []
        for ctx in contexts:  # all kept alive until the sort: freeing them early measured slower
            for statement in campaign.suites:
                if ctx.mu_error is None:
                    results.append(_row(statement, ctx.descriptor, partial(_SUITES[statement], ctx)))
                elif statement in ctx.failing:
                    results.append(_row(statement, ctx.descriptor, lambda: (False, ctx.mu_error)))
        results.sort(key=lambda r: (r.statement, r.instance))
        return results
    finally:
        clear_derived()


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
    defect failures.  Groups on which the hypothesis cannot be ablated at all
    (no non-normal subgroup exists) are skipped.  Groups resolve through
    ``_Group``, and no mu is read, since each probe builds its own.  Every
    derived cache is emptied when it returns or raises, as by ``run_campaign``.
    """
    if drop is None:
        return run_campaign(campaign)
    if drop not in ABLATION_TOKENS:
        raise UnknownToken(f"unknown ablation token {drop!r}; expected one of {ABLATION_TOKENS}")
    try:
        results = []
        for group in (_Group(token).group for token in campaign.groups):
            if drop == "pointed":
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
    finally:
        clear_derived()


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


def statements_covered(results: list[SuiteResult]) -> tuple[str, ...]:
    return tuple(sorted({r.statement for r in results}))
