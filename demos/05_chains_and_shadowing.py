"""Chains between measures, chain continuity, and a shadowing refutation.

Any two measures are joined by short verified delta-chains of every
sufficient length (with an invertible map the chain lands exactly on the
target), yet chain continuity fails everywhere unless the map funnels the
whole space to a point, and cross-component pseudotrajectories of a
dumbbell homeomorphism are not weakly shadowed by grid measures.
"""

from fractions import Fraction

from cantordyn import (
    PrefixTableMap,
    chain_connect_homeo,
    chain_connect_map,
    chain_continuity_test,
    chain_step_count,
    default_gamma,
    dirac,
    make_dumbbell_tower,
    simplex_grid,
    transitivity_check,
    verify_chain,
    weak_shadowing_refutation,
)

print("== minimum chain lengths per delta ==")
for delta in (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)):
    print(f"delta {delta}: gamma = {default_gamma(delta)}, k0 = {chain_step_count(delta)}")

print("\n== a chain that lands exactly on the target ==")
swap = PrefixTableMap((("0", "1"), ("1", "0")))
chain = chain_connect_homeo(swap, dirac(""), dirac("1"), Fraction(3, 4), 2)
print("steps:", chain.step_distances, "-> endpoint", chain.points[-1].atoms)
# an independent re-check: every step checked again from the points alone
print("re-verified:", verify_chain(swap, chain.points, chain.delta) == chain)

print("\n== chain continuity: contraction vs dumbbell ==")
contraction = PrefixTableMap((("0", "00"), ("1", "000")))
print("contraction:", chain_continuity_test(contraction, 3).verdict)
dumbbell = make_dumbbell_tower((4, 2), 2, bar_length=1)
cert = chain_continuity_test(dumbbell.table, 4)
print("dumbbell:", cert.verdict)
print("  diverging chain endpoints sit", cert.witnesses["endpoint_gap"], "apart")

print("\n== transitivity at the cell level ==")
partition = dumbbell.levels[0].partition()
trans = transitivity_check(dumbbell.table, partition)
print(trans.verdict, "| unreachable pair:", trans.witnesses.get("unreachable_pair"))

print("\n== no grid measure weakly shadows a cross-component pseudotrajectory ==")
grid = simplex_grid(partition, 1)
cert = weak_shadowing_refutation(dumbbell, Fraction(1, 4), Fraction(1, 2), grid)
print(cert.verdict, f"over {len(grid)} unit-mass grid measures")
worst = min(
    max(row["min_to_first"], row["min_to_second"]) for row in cert.details["grid_minima"]
)
print("every orbit stays at least", worst, "away from one of the two anchors")

print("\n== a chain for a non-invertible map ends on the image orbit ==")
chain = chain_connect_map(contraction, dirac("1"), dirac("0"), Fraction(1, 2), 4)
print("endpoint:", chain.points[-1].atoms)
print("re-verified:", verify_chain(contraction, chain.points, chain.delta) == chain)
