"""The exact Prohorov metric between finitely supported measures.

The distance inf{delta : mu(X) <= nu(X^delta) + delta for all X} is solved
exactly by scanning the finitely many intervals where the strict
delta-neighborhood operator is constant.  The Cantor metric is an
ultrametric, so each interval maximum has a closed form, the sum over
cylinder classes B of (mu(B) - nu(B))^+; that is the production solver.
Brute subset enumeration, max-flow over the bipartite closeness graph and
the symmetric two-sided formulation are kept as oracles: backend "both"
checks the closed form against max-flow, and every formulation must agree.
"""

import random
from fractions import Fraction

from cantordyn import (
    atomic_measure,
    convex_combine,
    dirac,
    prohorov,
    prohorov_distance,
    prohorov_two_sided,
    pushforward,
    PrefixTableMap,
    random_atomic_measure,
)

print("== unit masses ==")
for z, w in [("", "1"), ("00", "01"), ("0110", "0111")]:
    print(f"d(point {z or 'e'}, point {w or 'e'}) =", prohorov_distance(dirac(z), dirac(w)))

print("\n== a half-half mixture against a unit mass ==")
mu = atomic_measure({"": Fraction(1, 2), "1": Fraction(1, 2)})
result = prohorov(mu, dirac(""), backend="both")
print("distance:", result.value)
print("binding subset of the left support:", result.witness_set)

print("\n== the two formulations agree on random inputs ==")
rng = random.Random(0)
for _ in range(5):
    a = random_atomic_measure(rng, max_atoms=6)
    b = random_atomic_measure(rng, max_atoms=6)
    one = prohorov(a, b, backend="both").value
    two = prohorov_two_sided(a, b)
    print(f"one-sided {one!s:>8}   two-sided {two!s:>8}   equal: {one == two}")

print("\n== pushing a measure forward moves unit masses with the point ==")
double = PrefixTableMap((("0", "00"), ("1", "01")))
print("image of the mixture:", pushforward(double, mu).atoms)

print("\n== interpolation moves distance at most the step weight ==")
nu = dirac("1")
for n in range(3):
    t = Fraction(1, 4)
    a = convex_combine([(1 - (n + 1) * t, mu), ((n + 1) * t, nu)])
    b = convex_combine([(1 - n * t, mu), (n * t, nu)])
    print(f"step {n}: d = {prohorov_distance(a, b)} <= {t}")
