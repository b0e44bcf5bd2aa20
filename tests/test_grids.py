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
    PairClass,
    li_yorke_scan,
    random_atomic_measure,
    random_cell_measure,
    simplex_grid,
    track_representatives,
)
from cantordyn.measures import atomic_measure, prohorov, pushforward_iter
from cantordyn.orbits import distance_profile
from cantordyn.towers import make_balloon_tower, make_dumbbell_tower

from test_orbits import li_yorke_rule


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
    # the production scan: every rank matrix entry of sampled pairs, and
    # their minimum and maximum over the scan's window, against the scalar
    # orbit engine's profile, liminf and limsup
    rng = random.Random(13)
    for tower in (make_dumbbell_tower((4, 2), 2, bar_length=1),
                  make_balloon_tower([(3, 2), (5, 2)], [1, 2])):
        scan = li_yorke_scan(tower.table, tower.levels[0].partition(), 2)
        scanner, grid, ranks = scan.scanner, scan.grid, {}
        rho, tau = scan.family.preperiod, scan.family.period
        for _ in range(15):
            i, j = rng.randrange(len(grid)), rng.randrange(len(grid))
            slow = distance_profile(tower.table, grid[i], grid[j])
            horizon = max(rho + tau, len(slow.values)) + 2
            for n in range(horizon):
                if n not in ranks:
                    ranks[n] = scanner.rank_matrix_at(n)
                assert scanner.values[int(ranks[n][i, j])] == slow.value_at(n), (i, j, n)
            window = [scanner.values[int(ranks[n][i, j])] for n in range(rho, rho + tau)]
            assert (min(window), max(window)) == (slow.liminf, slow.limsup), (i, j)


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


def readme_balloon():
    # the README example's tower: level 0 has 24 cells and a window of
    # preperiod 6 and period 6
    return make_balloon_tower([(5, 3), (7, 3)], [2, 4])


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
def test_distance_count_is_the_length_of_the_value_list(kind):
    # the integer count that declines a resolution before the value list is
    # built: 1/s is a multiple of 1/res exactly when s divides res
    tower = TOWERS[kind]()
    for level in tower.levels:
        partition = level.partition()
        family = track_representatives(tower.table, partition)
        for resolution in [*range(1, 200), 360, 720, 5040]:
            measures = [random_cell_measure(partition, random.Random(resolution), resolution)]
            scanner = CommonSupportScanner(family, measures, resolution)
            assert grids._distance_count(family, resolution) == len(scanner.values), resolution


@pytest.mark.parametrize("kind", sorted(TOWERS))
def test_scan_ranks_are_symmetric_and_counts_match_the_triangle(kind):
    tower = TOWERS[kind]()
    scan = li_yorke_scan(tower.table, tower.levels[0].partition(), 3)
    zero = scan.scanner.rank[Fraction(0)]
    for n in range(scan.family.preperiod + scan.family.period):
        ranks = scan.scanner.rank_matrix_at(n)
        assert (ranks == ranks.T).all() and (ranks.diagonal() == zero).all()
    # the per-pair formula on the window's minimum and maximum ranks over
    # the strict upper triangle is the oracle
    rho, tau = scan.family.preperiod, scan.family.period
    window = np.stack([scan.scanner.rank_matrix_at(n) for n in range(rho, rho + tau)])
    iu = np.triu_indices(len(scan.grid), k=1)
    li, ls = window.min(axis=0)[iu], window.max(axis=0)[iu]
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


ORACLE_GRIDS = {
    # (tower, level, resolutions): dumbbell towers have one level, so the
    # second dumbbell case is another tower; the README tower's window has
    # 6 steps, of which the scan reads 2, and its grid at resolution 1 has
    # 24 measures (276 pairs)
    "balloon-0": (TOWERS["balloon"], 0, (1, 2)),
    "balloon-1": (TOWERS["balloon"], 1, (1, 2)),
    "balloon-readme-0": (readme_balloon, 0, (1,)),
    "dumbbell-0": (TOWERS["dumbbell"], 0, (1, 2)),
    "dumbbell-bar2-0": (lambda: make_dumbbell_tower((4, 2), 1, bar_length=2), 0, (1, 2)),
}


@pytest.mark.parametrize("kind, resolution", [
    (kind, resolution) for kind, (_, _, resolutions) in sorted(ORACLE_GRIDS.items())
    for resolution in resolutions])
def test_scan_counts_match_the_profile_oracle(kind, resolution):
    # every pair of the grid classified from its scalar profile's liminf and
    # limsup: the scan's counts must be that tally
    make, level, _ = ORACLE_GRIDS[kind]
    tower = make()
    scan = li_yorke_scan(tower.table, tower.levels[level].partition(), resolution)
    tally = dict.fromkeys(scan.counts, 0)
    for mu, nu in combinations(scan.grid, 2):
        p = distance_profile(tower.table, mu, nu)
        tally[li_yorke_rule(p.liminf, p.limsup).value] += 1
    assert scan.counts == tally
    assert list(scan.counts) == [c.value for c in PairClass]


@pytest.mark.parametrize("make, level, resolution, steps", [
    (TOWERS["dumbbell"], 0, 2, [1, 2]),
    (readme_balloon, 0, 1, [6, 11]),
    (lambda: make_balloon_tower([(2, 1)], [1]), 0, 2, [1]),
], ids=["liyorke-grid", "readme-balloon", "period-1"])
def test_li_yorke_scan_reads_the_first_and_last_window_steps(make, level, resolution, steps,
                                                              monkeypatch):
    # steps rho and rho + tau - 1 decide every class, and a one-step window
    # is read once
    read, step = [], CommonSupportScanner.rank_matrix_at

    def recorded(scanner, n):
        read.append(n)
        return step(scanner, n)

    monkeypatch.setattr(CommonSupportScanner, "rank_matrix_at", recorded)
    tower = make()
    scan = li_yorke_scan(tower.table, tower.levels[level].partition(), resolution)
    rho, tau = scan.family.preperiod, scan.family.period
    assert read == steps == sorted({rho, rho + tau - 1})


def test_scan_counts_every_class_on_random_steps(monkeypatch):
    # no certified scan has a pair at distance 0 at some but not all window
    # steps, so the Li-Yorke case is checked on random symmetric steps
    # (ranks 0-2, rank 0 is distance 0, 0 on the diagonal) whose zero pairs
    # only grow along the window, as they do under every induced map,
    # against the rule on each pair's window minimum and maximum
    rng, steps = np.random.default_rng(7), {}

    def random_step(scanner, n):
        if not steps:
            family, size = scanner.family, len(scanner.mass)
            zeros = np.zeros((size, size), dtype=bool)
            for m in range(family.preperiod, family.preperiod + family.period):
                zeros |= np.triu(rng.random((size, size)) < 0.1, 1)
                upper = np.where(zeros, 0, rng.integers(1, 3, (size, size), dtype=np.uint16))
                upper = np.triu(upper, 1)
                steps[m] = upper + upper.T
        return steps[n]

    monkeypatch.setattr(CommonSupportScanner, "rank_matrix_at", random_step)
    tower = readme_balloon()
    scan = li_yorke_scan(tower.table, tower.levels[0].partition(), 1)
    rho, tau = scan.family.preperiod, scan.family.period
    assert tau > 2 and scan.scanner.values[0] == 0
    window = np.stack([steps[n] for n in range(rho, rho + tau)])
    values, tally = scan.scanner.values, dict.fromkeys(scan.counts, 0)
    for i, j in combinations(range(len(scan.grid)), 2):
        ranks = window[:, i, j]
        tally[li_yorke_rule(values[ranks.min()], values[ranks.max()]).value] += 1
    assert scan.counts == tally
    assert min(tally.values()) > 0


def test_li_yorke_scan_memory_stays_near_one_step():
    # the liyorke-grid scan (R = 715): one uint16 step (2 bytes per entry),
    # its zero mask (1 byte) and its blocks, where a per-pair zero count
    # took 4.5 bytes per entry and the liminf and limsup rank matrices 8.3
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    partition = tower.levels[0].partition()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scan = li_yorke_scan(tower.table, partition, 4)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(scan.grid) == 715
    assert peak <= 4 * len(scan.grid) ** 2, peak / len(scan.grid) ** 2
