"""Simplex grids and the vectorized all-pairs distance scan."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from cantordyn import grids
from cantordyn.cantor import representative
from cantordyn.errors import ParameterError
from cantordyn.grids import (
    CommonSupportScanner,
    li_yorke_scan,
    random_atomic_measure,
    random_cell_measure,
    simplex_grid,
    track_representatives,
)
from cantordyn.measures import atomic_measure, prohorov, pushforward_iter
from cantordyn.orbits import PairClass, _li_yorke_rule, distance_profile
from cantordyn.towers import make_balloon_tower, make_dumbbell_tower


def test_simplex_grid_count_and_masses():
    tower = make_balloon_tower([(2, 2)], [1])
    partition = tower.levels[0].partition()
    grid = simplex_grid(partition, 3)
    assert len(grid) == comb(3 + len(partition) - 1, len(partition) - 1)
    for mu in grid:
        assert all(m.denominator in (1, 3) for _, m in mu.atoms)


@pytest.mark.parametrize("tower", [
    make_balloon_tower([(2, 2)], [1]),
    make_dumbbell_tower((4, 2), 1, bar_length=1),
], ids=["balloon", "dumbbell"])
@pytest.mark.parametrize("resolution", [1, 2, 3])
def test_simplex_grid_is_in_lexicographic_order_of_cell_counts(tower, resolution):
    # the grid index of each measure is part of the reports: it must not move
    partition = tower.levels[0].partition()
    reps = [representative(c) for c in partition.cells]
    grid = simplex_grid(partition, resolution)
    counts = [tuple(int(dict(mu.atoms).get(r, 0) * resolution) for r in reps) for mu in grid]
    assert counts == sorted(
        c for c in product(range(resolution + 1), repeat=len(reps)) if sum(c) == resolution)


def test_random_cell_measure_lives_on_representatives():
    tower = make_balloon_tower([(2, 2)], [1])
    partition = tower.levels[0].partition()
    rng = random.Random(4)
    reps = {c.rstrip("0") for c in partition.cells}
    for _ in range(10):
        mu = random_cell_measure(partition, rng, 8)
        assert {p for p, _ in mu.atoms} <= reps


def test_grid_builders_match_the_rational_constructor():
    # the builders hand integer counts to the integer core, which skips the
    # checks; the checked rational constructor must build the same measures
    partition = make_balloon_tower([(2, 2)], [1]).levels[0].partition()
    reps = [representative(c) for c in partition.cells]

    def rational(counts, resolution):
        return atomic_measure({r: Fraction(k, resolution) for r, k in zip(reps, counts)})

    assert simplex_grid(partition, 3) == [
        rational(counts, 3) for counts in product(range(4), repeat=len(reps)) if sum(counts) == 3
    ]
    rng, twin = random.Random(3), random.Random(3)
    for resolution in (1, 5, 16):
        counts = [0] * len(reps)
        for _ in range(resolution):
            counts[twin.randrange(len(counts))] += 1
        assert random_cell_measure(partition, rng, resolution) == rational(counts, resolution)
    for _ in range(20):
        mu = random_atomic_measure(rng)
        assert mu == atomic_measure(mu.atoms) and 64 % mu.denom == 0


@pytest.mark.parametrize("resolution", [0, -3])
def test_grid_builders_reject_a_resolution_below_1(resolution):
    partition = make_balloon_tower([(2, 2)], [1]).levels[0].partition()
    with pytest.raises(ParameterError, match="resolution must be positive"):
        random_cell_measure(partition, random.Random(0), resolution)
    with pytest.raises(ParameterError, match="resolution must be positive"):
        simplex_grid(partition, resolution)


def test_random_atomic_measure_rejects_impossible_sizes():
    # no atom; more atoms than sixty-fourths; more atoms than points of depth <= 0 and <= 2
    rng = random.Random(0)
    for max_atoms, max_depth in ((0, 4), (65, 8), (3, 0), (5, 2)):
        with pytest.raises(ParameterError):
            random_atomic_measure(rng, max_atoms=max_atoms, max_depth=max_depth)
    assert len(random_atomic_measure(rng, max_atoms=4, max_depth=2)) <= 4
    assert len(random_atomic_measure(rng, max_atoms=64, max_depth=6)) <= 64


def test_track_representatives_balloon_exact_cycle():
    # the balloon certifies by state cycle, the dumbbell by padded cycle
    cases = [
        (make_balloon_tower([(3, 2), (5, 2)], [1, 2]), (2, 2)),
        (make_dumbbell_tower((4, 2), 2, bar_length=1), (1, 2)),
    ]
    for tower, expected in cases:
        family = track_representatives(tower.table, tower.levels[0].partition())
        assert (family.preperiod, family.period) == expected
        # sorted forms repeat exactly with the declared period
        assert family.form_at(family.preperiod) == family.form_at(
            family.preperiod + family.period
        )


def test_scanner_matches_reference_engine():
    # the production scan: every rank matrix entry and the scan's liminf and
    # limsup of sampled pairs against the scalar orbit engine
    rng = random.Random(13)
    for tower in (make_dumbbell_tower((4, 2), 2, bar_length=1),
                  make_balloon_tower([(3, 2), (5, 2)], [1, 2])):
        scan = li_yorke_scan(tower.table, tower.levels[0].partition(), 2)
        scanner, grid, ranks = scan.scanner, scan.grid, {}
        for _ in range(15):
            i, j = rng.randrange(len(grid)), rng.randrange(len(grid))
            slow = distance_profile(tower.table, grid[i], grid[j])
            horizon = max(scan.family.preperiod + scan.family.period, len(slow.values)) + 2
            for n in range(horizon):
                if n not in ranks:
                    ranks[n] = scanner.rank_matrix_at(n)
                assert scanner.values[int(ranks[n][i, j])] == slow.value_at(n), (i, j, n)
            assert scan.liminf(i, j) == slow.liminf
            assert scan.limsup(i, j) == slow.limsup


def test_rank_matrix_agrees_with_scalar_distance():
    tower = make_dumbbell_tower((4, 2), 1, bar_length=2)
    partition = tower.levels[0].partition()
    family = track_representatives(tower.table, partition)
    grid = simplex_grid(partition, 2)
    scanner = CommonSupportScanner(family, grid, 2)
    rng = random.Random(19)
    for n in (0, family.preperiod, family.preperiod + 1):
        ranks = scanner.rank_matrix_at(n)
        for _ in range(12):
            i, j = rng.randrange(len(grid)), rng.randrange(len(grid))
            mu_n = pushforward_iter(tower.table, grid[i], n)
            nu_n = pushforward_iter(tower.table, grid[j], n)
            assert scanner.values[int(ranks[i, j])] == prohorov(mu_n, nu_n).value, (i, j, n)
    # 24 tracked points: sampled entries of every step against the flow oracle
    tower = make_balloon_tower([(5, 3), (7, 3)], [2, 4])
    partition = tower.levels[0].partition()
    family = track_representatives(tower.table, partition)
    assert len(family.points) == 24
    grid = simplex_grid(partition, 2)
    scanner = CommonSupportScanner(family, grid, 2)
    for n in range(family.preperiod + family.period):
        ranks = scanner.rank_matrix_at(n)
        for _ in range(25):
            i, j = rng.randrange(len(grid)), rng.randrange(len(grid))
            mu_n = pushforward_iter(tower.table, grid[i], n)
            nu_n = pushforward_iter(tower.table, grid[j], n)
            expected = prohorov(mu_n, nu_n, backend="flow").value
            assert scanner.values[int(ranks[i, j])] == expected, (i, j, n)


TOWERS = {
    "dumbbell": lambda: make_dumbbell_tower((4, 2), 2, bar_length=1),
    "balloon": lambda: make_balloon_tower([(3, 2), (5, 2)], [1, 2]),
}


@pytest.mark.parametrize("resolution", [127, 128, 255, 32767, 32768])
@pytest.mark.parametrize("kind", sorted(TOWERS))
def test_rank_matrix_at_accumulator_type_boundaries(kind, resolution):
    # class-maxima sums reach 2 * resolution: uint8 holds them up to 127,
    # uint16 up to 32,767.  A sum wrapped past 2 * resolution lands below
    # resolution, where the lookup reads infeasible, so at 128 and 32,768 a
    # too narrow type still gives the right values; at 255 it does not.
    # Every entry of every window step against the solver
    tower = TOWERS[kind]()
    partition = tower.levels[0].partition()
    family = track_representatives(tower.table, partition)
    rng = random.Random(resolution)
    measures = [random_cell_measure(partition, rng, resolution) for _ in range(12)]
    scanner = CommonSupportScanner(family, measures, resolution)
    for n in range(family.preperiod + family.period):
        ranks = scanner.rank_matrix_at(n)
        moved = [pushforward_iter(tower.table, mu, n) for mu in measures]
        for (i, mu_n), (j, nu_n) in product(enumerate(moved), repeat=2):
            assert scanner.values[int(ranks[i, j])] == prohorov(mu_n, nu_n).value, (i, j, n)


BLOCK_GRIDS = {
    # (tower, level, simplex resolution): 55 and 36 measures, neither a multiple of 7
    "dumbbell": (TOWERS["dumbbell"], 0, 2),
    "balloon": (TOWERS["balloon"], 1, 2),
}


@pytest.mark.parametrize("resolution", [None, 127, 128, 255])
@pytest.mark.parametrize("kind", sorted(BLOCK_GRIDS))
def test_rank_matrix_row_blocks_give_the_solver_values(kind, resolution, monkeypatch):
    # blocks of one row, of 7 rows (a non-divisor of R) and of more than R
    # rows: every entry of every window step against the solver, on a
    # simplex grid and at the accumulator boundaries, and the same counts
    make, level, grid_resolution = BLOCK_GRIDS[kind]
    tower = make()
    partition = tower.levels[level].partition()
    family = track_representatives(tower.table, partition)
    on_grid = resolution is None
    if on_grid:
        resolution, measures = grid_resolution, simplex_grid(partition, grid_resolution)
    else:
        rng = random.Random(resolution)
        measures = [random_cell_measure(partition, rng, resolution) for _ in range(20)]
    scanner = CommonSupportScanner(family, measures, resolution)
    size = len(measures)
    assert size % 7
    heights = (1, 7, size + 1)
    for n in range(family.preperiod + family.period):
        moved = [pushforward_iter(tower.table, mu, n) for mu in measures]
        expected = np.empty((size, size), dtype=np.uint16)
        for i, j in combinations(range(size), 2):
            expected[i, j] = expected[j, i] = scanner.rank[prohorov(moved[i], moved[j]).value]
        np.fill_diagonal(expected, scanner.rank[Fraction(0)])
        for height in heights:
            monkeypatch.setattr(grids, "BLOCK_ENTRIES", height * size)
            ranks = scanner.rank_matrix_at(n)
            assert ranks.dtype == np.uint16 and (ranks == ranks.T).all()
            assert (ranks == expected).all(), (height, n)
    if on_grid:
        counts = set()
        for height in heights:
            monkeypatch.setattr(grids, "BLOCK_ENTRIES", height * size)
            counts.add(tuple(li_yorke_scan(tower.table, partition, resolution).counts.items()))
        assert len(counts) == 1


def test_rank_matrix_step_memory_stays_near_its_uint16_result():
    # the liyorke-grid scan (R = 715): the result takes 2 bytes per entry
    # and the row blocks a fixed amount, where a full-size accumulator and
    # its widened lookup index took 14 bytes per entry
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    partition = tower.levels[0].partition()
    family = track_representatives(tower.table, partition)
    grid = simplex_grid(partition, 4)
    scanner = CommonSupportScanner(family, grid, 4)
    scanner.rank_matrix_at(family.preperiod)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ranks = scanner.rank_matrix_at(family.preperiod)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ranks.shape == (715, 715)
    assert peak <= 4 * ranks.size, peak / ranks.size


def test_scanner_rejects_a_resolution_without_room_for_ranks():
    # the 70,001 multiples of 1/70,000 alone overflow the uint16 ranks
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    partition = tower.levels[0].partition()
    family = track_representatives(tower.table, partition)
    measures = [random_cell_measure(partition, random.Random(k), 70000) for k in range(3)]
    with pytest.raises(ParameterError, match="resolution 70000"):
        CommonSupportScanner(family, measures, 70000)


@pytest.mark.parametrize("kind", sorted(TOWERS))
def test_scan_ranks_are_symmetric_and_counts_match_the_triangle(kind):
    tower = TOWERS[kind]()
    scan = li_yorke_scan(tower.table, tower.levels[0].partition(), 3)
    zero = scan.scanner.rank[Fraction(0)]
    for n in range(scan.family.preperiod + scan.family.period):
        ranks = scan.scanner.rank_matrix_at(n)
        assert (ranks == ranks.T).all() and (ranks.diagonal() == zero).all()
    # the per-pair formula over the strict upper triangle is the oracle
    iu = np.triu_indices(len(scan.grid), k=1)
    li, ls = scan.liminf_ranks[iu], scan.limsup_ranks[iu]
    assert scan.counts == {
        PairClass.ASYMPTOTIC.value: int((ls == zero).sum()),
        PairClass.SEPARATED_BELOW.value: int((li > zero).sum()),
        PairClass.LI_YORKE_PAIR.value: int(((li == zero) & (ls > zero)).sum()),
    }
    assert sum(scan.counts.values()) == scan.pair_count


def test_li_yorke_scan_no_pairs_on_dumbbell():
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    scan = li_yorke_scan(tower.table, tower.levels[0].partition(), 2)
    assert scan.counts["li_yorke_pair"] == 0
    assert sum(scan.counts.values()) == scan.pair_count


def test_li_yorke_scan_no_pairs_on_balloon():
    tower = make_balloon_tower([(3, 2), (5, 2)], [1, 2])
    scan = li_yorke_scan(tower.table, tower.levels[0].partition(), 2)
    assert scan.counts["li_yorke_pair"] == 0


def test_scanner_rejects_off_grid_measures():
    tower = make_balloon_tower([(2, 2)], [1])
    partition = tower.levels[0].partition()
    family = track_representatives(tower.table, partition)
    with pytest.raises(ParameterError):
        CommonSupportScanner(
            family, [random_cell_measure(partition, random.Random(0), 16)], 3
        )


def classify(scan, i: int, j: int) -> PairClass:
    """The Li-Yorke class of grid pair (i, j) from the scan's liminf and limsup."""
    return _li_yorke_rule(scan.liminf(i, j), scan.limsup(i, j))


def test_scan_classification_accessors():
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    scan = li_yorke_scan(tower.table, tower.levels[0].partition(), 1)
    for i, j in combinations(range(min(6, len(scan.grid))), 2):
        liminf, limsup = scan.liminf(i, j), scan.limsup(i, j)
        assert 0 <= liminf <= limsup <= 1
        cls = classify(scan, i, j)
        if liminf == 0 and limsup > 0:
            assert cls.value == "li_yorke_pair"
