"""Generated witness maps and the absence of Li-Yorke pairs.

A balloon tower is a continuous map whose digraph at every certified level
is a disjoint union of balloons (path feeding a cycle), all images proper
subcylinders; a dumbbell tower is a homeomorphism whose digraph is balanced
dumbbells with exactly cycling loop witnesses.  The induced map on measures
turns out tame: over a whole simplex grid, no pair of measures has distance
liminf zero together with positive limsup.
"""

from fractions import Fraction

from cantordyn import (
    classify_components,
    distance_profile,
    equicontinuity_certificate,
    graph_of,
    li_yorke_scan,
    make_balloon_tower,
    make_dumbbell_tower,
)

print("== a two-level balloon tower ==")
balloon = make_balloon_tower([(2, 2), (4, 2)], [1, 4])
for i, level in enumerate(balloon.levels):
    partition = level.partition()
    shapes = classify_components(graph_of(balloon.table, partition))
    kinds = {f"{s.kind}{s.params}" for s in shapes}
    print(f"level {i}: {len(partition)} cells, mesh {partition.mesh()}, components {kinds}")

print("\n== a two-dumbbell homeomorphism ==")
dumbbell = make_dumbbell_tower((4, 2), 2, bar_length=1)
partition = dumbbell.levels[0].partition()
shapes = classify_components(graph_of(dumbbell.table, partition))
print("components:", [f"{s.kind}{s.params}" for s in shapes])
print("bijective:", dumbbell.table.is_homeomorphism())

print("\n== exhaustive pair classification over a simplex grid ==")
scan = li_yorke_scan(dumbbell.table, partition, 2)
print(f"{scan.pair_count} pairs:", scan.counts)

print("\n== one pair in detail, from its certified distance profile ==")
pair = distance_profile(dumbbell.table, scan.grid[0], scan.grid[5])
print("liminf/limsup:", pair.liminf, pair.limsup, "| certified by", pair.certificate)
print("Li-Yorke pair:", pair.liminf == 0 < pair.limsup)

print("\n== equicontinuity of the induced balloon map ==")
cert = equicontinuity_certificate(balloon, Fraction(1, 4))
w = cert.witnesses
print("verdict:", cert.verdict, f"| every pair within {w['delta']} stays within {w['bound']}")
