"""Graded conjugation maps on the quaternion group.

Each group element g and valid membership function mu induce a fuzzy map
grading (x, y) by mu(x^-1 g y g^-1).  This script prints one such matrix,
demonstrates the exact composition law, and builds the class group that the
family forms, ending with the two isomorphism checks.

Run:  python demos/02_graded_conjugation.py
"""

from fuzzaut import (
    builtin_group,
    build_inn_group,
    center,
    class_strategy,
    compose_induced,
    inverse_induced,
    make_induced,
    theta,
    zeta,
)

q8 = builtin_group("Q8")
mu = class_strategy(q8)
names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

print("== the map induced by g = i ==")
f_i = make_induced(2, mu)
print("     " + "  ".join(f"{n:>4}" for n in names))
for x, row in enumerate(f_i.fmap.grades):
    print(f"{names[x]:>4} " + "  ".join(f"{str(v):>4}" for v in row))
print("unit entries sit at y = g^-1 x g, the conjugate of each x")

print()
print("== composition multiplies labels in reverse order ==")
f_j = make_induced(4, mu)
composed = compose_induced(f_i, f_j)
print(f"  map(i) . map(j) = map({names[composed.label]})   (j * i = {names[q8.mul(4, 2)]})")
inv = inverse_induced(f_i)
print(f"  inverse of map(i) = map({names[inv.label]})")

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
zc = zeta(q8, mu)
print(f"  g -> class(g^-1) is multiplicative: {zc.multiplicative}, onto: {zc.surjective}")
print(f"  its kernel is the center: {zc.kernel_is_center}")
print(f"  quotient by the center matches the class table: {zc.isomorphism}")
tc = theta(q8, mu)
print(f"  graded evaluation map is a bijective fuzzy homomorphism: {tc.ok}")
