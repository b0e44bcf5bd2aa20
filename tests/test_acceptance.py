"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all)
and fails hard on any exact-arithmetic violation.  Randomness is seeded, so
the suite is deterministic.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from cantordyn.cantor import canonical_point, point_distance, representative, standard_partition
from cantordyn.dynamics import (
    chain_connect_homeo,
    chain_connect_map,
    chain_continuity_test,
    chain_step_count,
    default_gamma,
    entropy_estimate,
    equicontinuity_certificate,
    equicontinuity_modulus,
    transitivity_check,
    weak_shadowing_refutation,
)
from cantordyn.grids import (
    li_yorke_scan,
    random_atomic_measure,
    random_cell_measure,
    simplex_grid,
)
from cantordyn.measures import (
    atomic_measure,
    cell_masses,
    convex_combine,
    dirac,
    prohorov,
    prohorov_distance,
    prohorov_two_sided,
    pushforward_iter,
)
from cantordyn.orbits import distance_profile
from cantordyn.recurrence import (
    AdmissibleChoice,
    approx_by_periodic,
    consistency_check,
    enumerate_admissible_choices,
    loop_support_check,
    periodic_measure,
    transient_perturbation,
)
from cantordyn.towers import make_balloon_tower, make_dumbbell_tower

from test_measures import GRID_STEP, grid_oracle_bracket


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def balloon_q2():
    return make_balloon_tower([(2, 2), (4, 2)], [1, 4])


@pytest.fixture(scope="module")
def balloon_q3():
    return make_balloon_tower([(5, 3), (7, 3)], [2, 4])


@pytest.fixture(scope="module")
def dumbbell_two():
    return make_dumbbell_tower((4, 2), 2, bar_length=1)


def test_criterion_1_prohorov_solver_exactness():
    start = time.monotonic()
    rng = random.Random(101)
    pairs = 1000
    for _ in range(pairs):
        mu = random_atomic_measure(rng, max_atoms=8, max_depth=4)
        nu = random_atomic_measure(rng, max_atoms=8, max_depth=4)
        enumerated = prohorov(mu, nu, backend="enumeration")
        value = enumerated.value
        closed = prohorov(mu, nu)
        assert (closed.value, closed.witness_set) == (value, enumerated.witness_set)
        assert prohorov(mu, nu, backend="flow").value == value
        assert prohorov_two_sided(mu, nu) == value
        bracket = grid_oracle_bracket(mu, nu)
        assert bracket - GRID_STEP <= value <= bracket
    elapsed = time.monotonic() - start
    report(
        1,
        elapsed < 120,
        f"{pairs} random pairs: closed form = enumeration = flow = two-sided, "
        f"grid oracle brackets every value ({elapsed:.1f}s < 120s)",
    )


def test_criterion_2_metric_axioms():
    rng = random.Random(202)
    triples = 300
    for _ in range(triples):
        mu = random_atomic_measure(rng, max_atoms=5)
        nu = random_atomic_measure(rng, max_atoms=5)
        rho = random_atomic_measure(rng, max_atoms=5)
        assert prohorov_distance(mu, nu) == prohorov_distance(nu, mu)
        assert prohorov_distance(mu, rho) <= (
            prohorov_distance(mu, nu) + prohorov_distance(nu, rho)
        )
    points = sorted(
        {canonical_point("".join(b)) for k in range(6) for b in product("01", repeat=k)}
    )
    checked = 0
    for z in points:
        for w in points:
            expected = min(point_distance(z, w), Fraction(1))
            assert prohorov_distance(dirac(z), dirac(w)) == expected
            checked += 1
    report(
        2,
        True,
        f"{triples} random triples satisfy symmetry and the triangle "
        f"inequality; unit-mass formula verified on {checked} point pairs",
    )


def test_criterion_3_lemma_instances():
    rng = random.Random(303)
    # mass-difference bound from a distance bound below the cell gap
    done = 0
    while done < 500:
        mu = random_atomic_measure(rng, max_atoms=5, max_depth=3)
        nu = random_atomic_measure(rng, max_atoms=5, max_depth=3)
        partition = standard_partition(rng.randint(1, 3))
        gap = partition.min_gap()
        d = prohorov_distance(mu, nu)
        if not d < gap:
            continue
        delta = d + Fraction(gap - d, 2)
        mm, nn = cell_masses(mu, partition), cell_masses(nu, partition)
        assert all(abs(mm[c] - nn[c]) < delta for c in partition.cells)
        done += 1
    # cellwise closeness bounds the distance by the mesh
    for _ in range(500):
        partition = standard_partition(rng.randint(1, 3))
        cells = partition.cells
        bound = partition.mesh() / len(cells)
        base = Fraction(1, len(cells))
        deltas = [Fraction(rng.randint(-8, 8)) * bound / 16 for _ in cells]
        shift = sum(deltas) / len(cells)
        nu = atomic_measure(
            {c.rstrip("0"): base + d - shift for c, d in zip(cells, deltas)}
        )
        mu = atomic_measure({c.rstrip("0"): base for c in cells})
        mm, nn = cell_masses(mu, partition), cell_masses(nu, partition)
        assert all(abs(mm[c] - nn[c]) <= bound for c in cells)
        assert prohorov_distance(mu, nu) <= partition.mesh()
    # interpolation steps move by at most the step weight
    done = 0
    while done < 500:
        mu = random_atomic_measure(rng, max_atoms=4)
        nu = random_atomic_measure(rng, max_atoms=4)
        t = Fraction(1, rng.randint(2, 9))
        n = rng.randint(0, int(1 / t) - 1)
        if 1 - (n + 1) * t <= 0:
            continue
        a = convex_combine([(1 - (n + 1) * t, mu), ((n + 1) * t, nu)])
        b = convex_combine([(1 - n * t, mu), (n * t, nu)])
        assert prohorov_distance(a, b) <= t
        done += 1
    report(3, True, "3 x 500 randomized lemma instances hold exactly")


def test_criterion_4_no_li_yorke_pairs(dumbbell_two):
    start = time.monotonic()
    partition = dumbbell_two.levels[0].partition()
    scan = li_yorke_scan(dumbbell_two.table, partition, 4)
    elapsed = time.monotonic() - start
    ok = scan.counts["li_yorke_pair"] == 0 and elapsed < 300
    report(
        4,
        ok,
        f"exhaustive {scan.pair_count} pairs of the m=4 grid on "
        f"{len(partition)} cells: {scan.counts} ({elapsed:.1f}s < 300s)",
    )


def test_criterion_5_equicontinuity_certificate(balloon_q2):
    # the certificate covers every pair within delta; test_lemmas.py checks
    # the lemma on sampled pairs
    for eps in (Fraction(1, 2), Fraction(1, 4)):
        cert = equicontinuity_certificate(balloon_q2, eps)
        assert cert.passed, cert.payload()
        partition = balloon_q2.levels[cert.witnesses["level"]].partition()
        delta = cert.witnesses["delta"]
        assert delta == equicontinuity_modulus(partition)
        assert delta <= min(partition.min_gap(), partition.mesh())
        assert cert.witnesses["bound"] == partition.mesh() < eps
    report(
        5,
        True,
        f"every pair within the modulus (finest delta = {delta}, {len(partition)} cells "
        f"of out-degree 1) keeps every forward distance at most the mesh "
        f"{partition.mesh()} < eps",
    )


def test_criterion_6_chain_construction(balloon_q2, dumbbell_two):
    rng = random.Random(606)
    partition_map = balloon_q2.levels[0].partition()
    partition_homeo = dumbbell_two.levels[0].partition()
    pairs = [
        (
            random_cell_measure(partition_map, rng, 4),
            random_cell_measure(partition_map, rng, 4),
            random_cell_measure(partition_homeo, rng, 4),
            random_cell_measure(partition_homeo, rng, 4),
        )
        for _ in range(10)
    ]
    chains = 0
    for delta in (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)):
        gamma = default_gamma(delta)
        k0 = chain_step_count(delta)
        assert (k0 - 1) * gamma < 1 <= k0 * gamma
        for mu_m, nu_m, mu_h, nu_h in pairs:
            for k in range(k0, k0 + 6):
                chain = chain_connect_map(balloon_q2.table, mu_m, nu_m, delta, k)
                assert chain.points[-1] == pushforward_iter(balloon_q2.table, nu_m, k)
                chain = chain_connect_homeo(dumbbell_two.table, mu_h, nu_h, delta, k)
                assert chain.points[-1] == nu_h
                chains += 2
    report(
        6,
        True,
        f"{chains} chains verified step-by-step with exact endpoints over "
        f"deltas 3/4, 1/2, 1/4 and lengths k0..k0+5",
    )


def test_criterion_7_chain_continuity(balloon_q2, dumbbell_two):
    from cantordyn.maps import PrefixTableMap

    contraction = PrefixTableMap((("0", "00"), ("1", "000")))
    cert = chain_continuity_test(contraction, 3)
    assert cert.verdict == "chain_continuous_everywhere"
    gaps = []
    for tower, depth in ((balloon_q2, 3), (dumbbell_two, 4)):
        cert = chain_continuity_test(tower.table, depth, eps=Fraction(1, 4))
        assert cert.verdict == "not_chain_continuous_anywhere"
        assert cert.witnesses["endpoint_gap"] >= Fraction(1, 2)
        gaps.append(cert.witnesses["endpoint_gap"])
    report(
        7,
        True,
        f"contraction funnels to a singleton; balloon and dumbbell witnesses "
        f"produce diverging chain pairs with endpoint gaps {gaps}",
    )


def test_criterion_8_chain_mixing(dumbbell_two):
    comps = dumbbell_two.levels[0].components
    grid = [
        dirac(representative(comps[0].left[0])),
        dirac(representative(comps[0].right[0])),
        dirac(representative(comps[1].left[0])),
        dirac(representative(comps[1].right[1])),
        convex_combine(
            [
                (Fraction(1, 2), dirac(representative(comps[0].left[1]))),
                (Fraction(1, 2), dirac(representative(comps[1].right[0]))),
            ]
        ),
        convex_combine(
            [
                (Fraction(1, 3), dirac(representative(comps[0].right[1]))),
                (Fraction(2, 3), dirac(representative(comps[1].left[1]))),
            ]
        ),
    ]
    delta = Fraction(1, 2)
    k0 = chain_step_count(delta)
    count = 0
    for mu in grid:
        for nu in grid:
            for k in range(k0, k0 + 5):
                chain = chain_connect_homeo(dumbbell_two.table, mu, nu, delta, k)
                assert chain.points[-1] == nu
                count += 1
    report(
        8,
        True,
        f"{count} delta-chains (delta = 1/2) of every length in "
        f"[{k0}, {k0 + 4}] between all ordered pairs of a 6-measure grid",
    )


def test_criterion_9_shadowing_refutation(dumbbell_two):
    start = time.monotonic()
    partition = dumbbell_two.levels[0].partition()
    trans = transitivity_check(dumbbell_two.table, partition)
    assert trans.verdict == "not_transitive"
    grid = simplex_grid(partition, 3)
    cert = weak_shadowing_refutation(
        dumbbell_two, Fraction(1, 4), Fraction(1, 2), grid
    )
    elapsed = time.monotonic() - start
    ok = cert.passed and elapsed < 600
    report(
        9,
        ok,
        f"unreachable cell pair {trans.witnesses['unreachable_pair']}; no "
        f"measure among {len(grid)} grid points weakly shadows the "
        f"cross-component pseudotrajectory ({elapsed:.1f}s < 600s)",
    )


def test_criterion_10_recurrence_pipeline(balloon_q3):
    tower = balloon_q3
    # exact periods for p in {1, 2, 3, 6} with loop length 6
    for p in (1, 2, 3, 6):
        choice = AdmissibleChoice(components=(0, 0), period=p)
        for level in (0, 1):
            mu = periodic_measure(tower, choice, level)
            assert pushforward_iter(tower.table, mu, p) == mu
            for j in range(1, p):
                assert pushforward_iter(tower.table, mu, j) != mu
    # refinement consistency across the two levels
    cert = consistency_check(tower, AdmissibleChoice((0, 0), period=2), 0, 1)
    assert cert.passed
    # at least 8 pairwise-distinct period-2 measures
    choices = enumerate_admissible_choices(tower, period=2)
    measures = [periodic_measure(tower, c, level=1) for c in choices]
    assert len(measures) >= 8
    for a, b in combinations(measures, 2):
        assert prohorov_distance(a, b) > 0
    # perturbations leave the recurrent candidates
    base = periodic_measure(tower, AdmissibleChoice((0, 0), period=2), 0)
    for lam in (Fraction(1, 4), Fraction(1, 8)):
        mu_lam, cert = transient_perturbation(tower, base, lam)
        assert cert.passed
        assert cert.witnesses["distance"] <= lam
        assert not loop_support_check(tower, mu_lam).passed
    # periodic approximation of 20 random recurrent measures
    rng = random.Random(1010)
    loops = [c for comp in tower.levels[0].components for c in comp.loop]
    for _ in range(20):
        counts = [rng.randint(0, 4) for _ in loops]
        while sum(counts) == 0:
            counts = [rng.randint(0, 4) for _ in loops]
        total = sum(counts)
        mu = atomic_measure(
            {representative(c): Fraction(k, total) for c, k in zip(loops, counts) if k}
        )
        mu_prime, cert = approx_by_periodic(tower, mu, Fraction(1, 4))
        assert cert.passed, cert.payload()
        p = cert.parameters["return_time"]
        assert pushforward_iter(tower.table, mu_prime, p) == mu_prime
        assert prohorov_distance(mu_prime, mu) < Fraction(1, 4)
    report(
        10,
        True,
        f"periods 1,2,3,6 exact on the loop-6 tower; consistency across "
        f"levels; {len(measures)} distinct period-2 measures; perturbations "
        f"and 20 periodic approximations verified",
    )


def test_criterion_11_entropy_evidence():
    tower = make_balloon_tower([(2, 2)], [1])
    grid = simplex_grid(tower.levels[0].partition(), 2)
    assert len(grid) <= 25  # exact separated-set counts
    horizon = 6
    table = entropy_estimate(
        tower.table, grid, [Fraction(1, 2), Fraction(1, 4)], horizon
    )
    assert table.exact
    profiles_stable_after = max(
        distance_profile(tower.table, grid[i], grid[j]).preperiod
        for i, j in combinations(range(len(grid)), 2)
    )
    summary = {}
    for eps in table.eps_list:
        assert table.is_monotone_in_n(eps)
        assert table.normalized_log_nonincreasing(eps)
        assert table.slope_zero_at_horizon(eps)
        tail = [
            table.counts[(n, eps)]
            for n in table.horizons
            if n > profiles_stable_after
        ]
        assert len(set(tail)) == 1  # constant beyond the preperiod
        summary[str(eps)] = {n: table.counts[(n, eps)] for n in table.horizons}
    report(
        11,
        True,
        f"separated-set counts stabilize with zero growth slope at the "
        f"horizon: {summary}",
    )
