"""Tour of membership functions on finite groups.

Builds a few groups from their Cayley tables, puts exact-rational grade
vectors on them, and shows what the subgroup/normality/pointedness
predicates accept, including the counterexample witnesses they return.

Run:  python demos/01_membership_functions.py
"""

from fractions import Fraction

from fuzzaut import (
    builtin_group,
    chain_strategy,
    class_strategy,
    conjugacy_classes,
    fuzzy_subset,
    is_fuzzy_subgroup,
    is_normal_fuzzy_subgroup,
    is_pointed,
)


def show(mu, label):
    print(f"  {label}: grades {[str(g) for g in mu.grades]}")


print("== the cyclic group Z4 ==")
z4 = builtin_group("Z4")
mu = chain_strategy(z4)
show(mu, "canonical chain mu")
print("  fuzzy subgroup:", is_fuzzy_subgroup(mu)[0])
print("  pointed:", is_pointed(mu))
for t in ("1", "1/2", "1/4"):
    level = tuple(x for x in z4.elements if mu.grades[x] >= Fraction(t))
    print(f"  level set at {t}: {level}")

print()
print("== a grade vector that fails, with its witness ==")
bad = fuzzy_subset(z4, ["1", "1/2", "1/4", "1/2"])
ok, witness = is_fuzzy_subgroup(bad)
print("  grades ['1', '1/2', '1/4', '1/2'] valid:", ok)
print("  witness:", witness)

print()
print("== class-constant grades on the symmetric group S3 ==")
s3 = builtin_group("S3")
print("  conjugacy classes:", conjugacy_classes(s3))
mu3 = class_strategy(s3)
show(mu3, "derived-series grades")
print("  normal fuzzy subgroup:", is_normal_fuzzy_subgroup(mu3)[0])

print()
print("== class-constant grades can still fail the subgroup law ==")
# transpositions (1, 2, 5) above the 3-cycles (3, 4): two transpositions multiply to a 3-cycle
ok, witness = is_fuzzy_subgroup(fuzzy_subset(s3, ["1", "1/2", "1/2", "1/4", "1/4", "1/2"]))
print("  fuzzy subgroup:", ok)
print("  witness:", witness)

print()
print("== quaternion grades ==")
q8 = builtin_group("Q8")
show(class_strategy(q8), "class strategy")
show(chain_strategy(q8), "chain strategy")
