"""Four lemmas that certificates rest on, checked as seeded properties.

- Li-Yorke counts: the induced map is a function, so a pair equal at some
  step stays equal.  Over one certified window [rho, rho + tau) a pair is
  asymptotic exactly when its pushed measures are equal at step rho, and
  separated below exactly when they differ at step rho + tau - 1; no pair
  is left to be Li-Yorke.  Two groupings of the grid give every count of
  ``li_yorke_scan``.
- Chain steps: before the jump, f~ of one chain point and the next differ
  by gamma (A - B) for probability measures A and B; at the jump by at most
  gamma, since k0 * gamma >= 1; after it not at all.  So every step has
  d_P <= d_TV <= gamma.
- Equicontinuity: on a balloon tower every cell's image meets one cell, so
  two points of one cell stay in one cell forever.  Pairs coupled inside
  cells keep every forward distance at most the mesh, and convex mixtures
  (1 - a) mu + a eta keep it at most a on every map.  On a dumbbell tower,
  whose cells split, some pair goes above the mesh.
- Shadowing: no digraph edge leaves a weak component of a dumbbell
  homeomorphism, so eta's mass on a component's cells is the same along
  its two-sided orbit, and each orbit minimum to the anchor of component i
  is at least min(rho_i, eta(X \\ R_i)), where R_i are the component's
  level-0 cells and rho_i is the least distance from the anchor's cell to
  a level-0 cell outside them.

Pairs whose orbit runs out of the engine's budget raise
``ResourceBudgetError``; they are skipped and counted, and each property
still needs enough certified pairs to hold on.
"""

import random
from collections import Counter
from fractions import Fraction
from math import comb, lcm

import pytest

from cantordyn.cantor import cell_distance
from cantordyn.dynamics import (
    chain_connect_map,
    chain_step_count,
    default_gamma,
    equicontinuity_modulus,
    weak_shadowing_refutation,
)
from cantordyn.errors import ResourceBudgetError
from cantordyn.grids import li_yorke_scan, random_atomic_measure, random_cell_measure, simplex_grid
from cantordyn.measures import atomic_measure, convex_combine, pushforward
from cantordyn.orbits import distance_profile
from cantordyn.towers import make_balloon_tower, make_dumbbell_tower

BALLOON_Q2 = make_balloon_tower([(2, 2), (4, 2)], [1, 4])
BALLOON = make_balloon_tower([(3, 2), (5, 2)], [2, 4])
DUMBBELL = make_dumbbell_tower((4, 2), 2, bar_length=1)


# ---------------------------------------------------------------------------
# Li-Yorke counts from two groupings


def _equal_pairs(f, grid, resolution: int, n: int) -> int:
    """Pairs of grid measures whose n-th pushforwards are equal, grouped by
    their integer masses over the resolution: a grid measure is held in
    lowest terms, so each weight is scaled by resolution // denom."""
    image: dict[str, str] = {}
    groups: Counter = Counter()
    for mu in grid:
        scale = resolution // mu.denom
        pushed: Counter = Counter()
        for p, w in zip(mu.support, mu.weights):
            if p not in image:
                q = p
                for _ in range(n):
                    q = f.apply(q)
                image[p] = q
            pushed[image[p]] += w * scale
        groups[tuple(sorted(pushed.items()))] += 1
    return sum(g * (g - 1) // 2 for g in groups.values())


@pytest.mark.parametrize("tower, level", [
    (BALLOON, 0), (BALLOON, 1), (BALLOON_Q2, 0), (BALLOON_Q2, 1), (DUMBBELL, 0),
    (make_dumbbell_tower((4, 2), 3, bar_length=1), 0),
], ids=["balloon-0", "balloon-1", "balloon-q2-0", "balloon-q2-1", "dumbbell-0",
        "dumbbell-3-0"])
@pytest.mark.parametrize("resolution", [1, 2, 3])
def test_li_yorke_counts_from_two_groupings(tower, level, resolution):
    scan = li_yorke_scan(tower.table, tower.levels[level].partition(), resolution)
    rho, tau = scan.family.preperiod, scan.family.period
    equal_first = _equal_pairs(tower.table, scan.grid, resolution, rho)
    equal_last = _equal_pairs(tower.table, scan.grid, resolution, rho + tau - 1)
    assert scan.counts == {
        "asymptotic": equal_first,
        "separated_below": comb(len(scan.grid), 2) - equal_last,
        "li_yorke_pair": equal_last - equal_first,
    }


# ---------------------------------------------------------------------------
# chain steps within gamma


def _total_variation(a, b) -> Fraction:
    """(1/2) sum_x |a(x) - b(x)|, from the integer weights over a common
    denominator, without the Prohorov solver."""
    den = lcm(a.denom, b.denom)
    diff = Counter({p: w * (den // a.denom) for p, w in zip(a.support, a.weights)})
    diff.subtract({p: w * (den // b.denom) for p, w in zip(b.support, b.weights)})
    return Fraction(sum(abs(v) for v in diff.values()), 2 * den)


def _chain_pairs():
    """The chains suite's pairs on the (3:2, 5:2) balloon tower at level 0,
    cell measures at resolution 4, and random atomic pairs on the balloon
    and the dumbbell maps."""
    rng = random.Random(5)
    partition = BALLOON.levels[0].partition()
    for _ in range(30):
        yield BALLOON.table, random_cell_measure(partition, rng, 4), random_cell_measure(
            partition, rng, 4)
    for tower in (BALLOON, DUMBBELL):
        for _ in range(15):
            yield tower.table, random_atomic_measure(rng, 6), random_atomic_measure(rng, 6)


def test_every_chain_step_is_within_gamma():
    steps = 0
    for f, mu, nu in _chain_pairs():
        for delta in (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)):
            gamma = default_gamma(delta)
            p, q = gamma.numerator, gamma.denominator
            k0 = chain_step_count(delta)
            for k in range(k0, k0 + 4):
                chain = chain_connect_map(f, mu, nu, delta, k)
                for a, b, d in zip(chain.points, chain.points[1:], chain.step_distances):
                    tv = _total_variation(pushforward(f, a), b)
                    assert d.numerator * q <= p * d.denominator  # d <= gamma, in integers
                    assert tv.numerator * q <= p * tv.denominator  # d_TV <= gamma
                    assert d <= tv
                    steps += 1
    assert steps == 60 * (2 + 3 + 5) * 4 + 60 * 3 * 6  # k0 = 2, 3, 5; lengths k0 .. k0 + 3


# ---------------------------------------------------------------------------
# equicontinuity: mixtures within a, moved atoms within the mesh


def _supremum(f, mu, nu):
    """sup_n d(f~^n mu, f~^n nu), or None where the orbit runs out of budget."""
    try:
        return distance_profile(f, mu, nu).supremum()
    except ResourceBudgetError:
        return None


def test_mixtures_stay_within_their_weight():
    # nu = (1 - a) mu + a eta with a < delta, for random cell measures mu
    # and eta at resolution 8: 100 seeded pairs per eps
    rng = random.Random(505)
    checked = skipped = 0
    for eps in (Fraction(1, 2), Fraction(1, 4)):
        partition = BALLOON_Q2.levels[BALLOON_Q2.level_with_mesh_below(eps)].partition()
        delta = equicontinuity_modulus(partition)
        for _ in range(100):
            mu = random_cell_measure(partition, rng, 8)
            eta = random_cell_measure(partition, rng, 8)
            alpha = delta * Fraction(rng.randint(1, 7), 8)
            sup = _supremum(BALLOON_Q2.table, mu, convex_combine([(1 - alpha, mu), (alpha, eta)]))
            if sup is None:
                skipped += 1
                continue
            assert sup <= alpha < delta
            checked += 1
    assert checked >= 150, (checked, skipped)


def _moved_atom_pairs(partition, seed: int, count: int):
    """Random measures and the same measures with each atom moved to a
    random point of its own cell."""
    rng = random.Random(seed)
    for _ in range(count):
        mu = random_atomic_measure(rng, 4, 6)
        nu = atomic_measure([
            (partition.cell_of(p) + "".join(rng.choice("01") for _ in range(rng.randint(0, 3))), m)
            for p, m in mu.atoms
        ])
        yield mu, nu


def _moved_atom_suprema(tower, seed: int, count: int):
    """The level-0 mesh and the suprema of the moved-atom pairs, with the
    number of pairs that ran out of budget."""
    partition = tower.levels[0].partition()
    sups = [_supremum(tower.table, mu, nu)
            for mu, nu in _moved_atom_pairs(partition, seed, count)]
    return partition.mesh(), [s for s in sups if s is not None], sups.count(None)


@pytest.mark.parametrize("tower", [BALLOON_Q2, BALLOON], ids=["balloon-q2", "balloon"])
def test_moved_atoms_stay_within_the_mesh_on_balloon_towers(tower):
    mesh, sups, skipped = _moved_atom_suprema(tower, 19, 60)
    assert len(sups) >= 20, skipped
    assert max(sups) == mesh  # the bound is attained, so it has no slack to hide in


def test_moved_atoms_leave_the_mesh_on_a_dumbbell_tower():
    # the dumbbell's level-0 cells split, so the same construction goes above
    mesh, sups, skipped = _moved_atom_suprema(DUMBBELL, 19, 60)
    assert len(sups) >= 20, skipped
    assert max(sups) > mesh


# ---------------------------------------------------------------------------
# shadowing minima bounded by invariant component masses


@pytest.mark.parametrize("level, count, bar_length", [
    ((4, 2), 2, 1), ((4, 2), 2, 2), ((4, 2), 3, 1), ((5, 2), 4, 1),
])
def test_shadowing_minima_are_bounded_by_component_masses(level, count, bar_length):
    tower = make_dumbbell_tower(level, count, bar_length=bar_length)
    partition = tower.levels[0].partition()
    grid = simplex_grid(partition, 2)
    cert = weak_shadowing_refutation(tower, Fraction(1, 3), Fraction(1, 2), grid)
    rows = cert.details["grid_minima"]
    assert len(rows) == len(grid)
    attained = 0
    for name, comp in zip(("first", "second"), tower.levels[0].components):
        own = set(comp.cells)
        rho = min(cell_distance(comp.initial_vertex, c) for c in partition.cells if c not in own)
        for row in rows:
            eta = grid[row["measure"]]
            outside = sum((m for p, m in eta.atoms if partition.cell_of(p) not in own),
                          Fraction(0))
            bound = min(rho, outside)
            assert row[f"min_to_{name}"] >= bound
            attained += row[f"min_to_{name}"] == bound
    assert attained > 0
