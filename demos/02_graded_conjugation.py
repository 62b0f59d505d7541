"""Graded conjugation maps on the quaternion group.

Each group element g and valid membership function mu induce a fuzzy map
grading (x, y) by mu(x^-1 g y g^-1).  This script prints one such matrix,
demonstrates the exact composition law, and builds the class group that the
family forms, ending with the two isomorphism checks: Theorem 4.2's facts
computed in the open, then the verdicts of zeta and theta.

Run:  python demos/02_graded_conjugation.py
"""

from fuzzaut import (
    builtin_group,
    build_inn_group,
    center,
    class_strategy,
    compose_maps,
    make_induced,
    theta,
    zeta,
)
from fuzzaut.groups import first_non_multiplicative
from fuzzaut.induced import check_inverse_labels, check_label_products

q8 = builtin_group("Q8")
mu = class_strategy(q8)
names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

print("== the map induced by g = i ==")
f_i = make_induced(2, mu)
print("     " + "  ".join(f"{n:>4}" for n in names))
for x, row in enumerate(f_i.grades):
    print(f"{names[x]:>4} " + "  ".join(f"{str(v):>4}" for v in row))
print("unit entries sit at y = g^-1 x g, the conjugate of each x")

print()
print("== composition multiplies labels in reverse order ==")
# labels come from the group law: map(k) and map(-k) are equal matrices
ji, minus_i = q8.table[4][2], q8.inverses[2]
family = {g: make_induced(g, mu) for g in (2, 4, ji, minus_i, q8.identity)}
assert compose_maps(f_i, family[4]) == family[ji]  # sup composition, cell by cell
assert check_label_products(q8, family, [(2, 4)]) == (True, None)
print(f"  map(i) . map(j) = map({names[ji]})   (j * i = {names[q8.table[4][2]]})")
assert check_inverse_labels(q8, family, [2]) == (True, None)
print(f"  inverse of map(i) = map({names[minus_i]})")

print()
print("== the family collapses to |G| / |Z(G)| classes ==")
inn = build_inn_group(q8, mu)
print(f"  center: {[names[z] for z in sorted(center(q8))]}")
for idx, cls in enumerate(inn.classes):
    print(f"  class {idx}: labels {[names[g] for g in cls]}")
print("  class table (a Klein four-group):")
for row in inn.table.table:
    print("    " + " ".join(map(str, row)))

print()
print("== isomorphism checks ==")
# zeta sends g to the class of g^-1; its facts, read off the class partition
images = [inn.class_of[q8.inverses[g]] for g in q8.elements]
multiplicative = first_non_multiplicative(q8, inn.table, images) is None
onto = set(images) == set(inn.table.elements)
kernel = {g for g in q8.elements if images[g] == images[q8.identity]}
print(f"  g -> class(g^-1) is multiplicative: {multiplicative}, onto: {onto}")
print(f"  its kernel is the center: {kernel == center(q8)}")
iso, _ = zeta(q8, mu)
print(f"  quotient by the center matches the class table: {iso}")
bijective_hom, _ = theta(q8, mu)
print(f"  graded evaluation map is a bijective fuzzy homomorphism: {bijective_hom}")
