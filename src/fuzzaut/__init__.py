"""Fuzzy group theory over finite Cayley-table groups, in exact arithmetic.

The package builds fuzzy maps, homomorphisms and automorphisms between
finite groups, constructs the inner automorphisms induced by a normal pointed
membership function, and mechanically verifies the laws these objects obey
(see :mod:`fuzzaut.harness` for the catalog).
"""

from .errors import FuzzautError
from .grades import GRADE_ONE, GRADE_ZERO, format_grade, grade, parse_grade
from .groups import (
    FiniteGroup,
    builtin_group,
    center,
    conjugacy_classes,
    conjugations,
    crisp_automorphisms,
    is_group_isomorphism,
    is_normal_subgroup,
    make_group,
    quotient_group,
)
from .subsets import (
    FuzzySubset,
    chain_strategy,
    class_strategy,
    fuzzy_subset,
    gen_mu_chain,
    is_fuzzy_subgroup,
    is_normal_fuzzy_subgroup,
    is_pointed,
)
from .maps import (
    FuzzyMap,
    FuzzyRelation,
    compose,
    compose_maps,
    crisp_map,
    identity_map,
    inverse_map,
    is_one_one,
    is_onto,
    make_fuzzy_map,
    pointwise_equal,
)
from .homs import (
    HomCheckReport,
    check_theorem_2_1,
    check_theorem_2_2,
    is_fuzzy_homomorphism,
    kernel,
    lift_hom,
)
from .automorphisms import (
    build_aut_class_group,
    is_class_preserving,
    is_inner,
)
from .induced import (
    InnGroup,
    build_inn_group,
    check_theorem_4_1,
    identity_induced,
    make_induced,
    theta,
    zeta,
)
from .harness import (
    Campaign,
    SuiteResult,
    STATEMENTS,
    ablation,
    campaign_report,
    default_campaign,
    run_campaign,
)

__version__ = "0.1.0"
