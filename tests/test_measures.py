"""Atomic measures and the exact Prohorov solver, with independent oracles."""

import functools
import importlib
import inspect
import os
import pickle
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import ceil, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import cantordyn
from cantordyn import measures as measures_module, orbits, tables
from cantordyn.cantor import (
    canonical_point,
    point_distance,
    point_in_cylinder,
    representative,
    separation,
    standard_partition,
)
from cantordyn.dynamics import (
    _chain_record,
    chain_connect_map,
    chain_step_count,
    entropy_estimate,
)
from cantordyn.errors import BackendSelectionError, CertificationError, ParameterError
from cantordyn.grids import random_atomic_measure, random_cell_measure, simplex_grid
from cantordyn.maps import PrefixTableMap
from cantordyn.measures import (
    BACKENDS,
    ENUMERATION_LIMIT,
    AtomicMeasure,
    _from_weights,
    _g_enumeration,
    _g_flow,
    _pushed,
    _solved_problem,
    _sorted_form,
    atomic_measure,
    cell_masses,
    convex_combine,
    dirac,
    measure_from_lines,
    prohorov,
    prohorov_distance,
    prohorov_two_sided,
    pushforward,
)
from cantordyn.orbits import distance_profile, orbit_distance_to_target
from cantordyn.towers import make_balloon_tower, make_dumbbell_tower

IDENTITY = PrefixTableMap((("", ""),))
DOUBLE = PrefixTableMap((("0", "00"), ("1", "01")))
MERGE = PrefixTableMap((("0", "0"), ("1", "0")))


GRID_STEP = Fraction(1, 1000)  # the spacing of the oracle's grid of deltas


def grid_oracle_bracket(mu, nu):
    """Smallest feasible grid multiple of ``GRID_STEP`` for the one-sided
    condition, checked directly from the definition.

    The exact distance lies in [k*step - step, k*step] for step =
    ``GRID_STEP``: feasibility is monotone, so binary search is sound.  Each
    subset's mu mass and each nu atom's distance to the nearest point of the
    subset are computed once; a nu atom lies in the strict
    delta-neighborhood of the subset exactly when that nearest distance is
    below delta.

    Masses and grid points are integers over one denominator D, a multiple
    of both measures' denominators and of step's, and each distance d is
    held as floor(d * D): for an integer j, d * D < j exactly when
    floor(d * D) < j, so the strict test stays exact in integers.
    """
    step = GRID_STEP
    mu_atoms, nu_atoms = mu.atoms, nu.atoms
    denom = lcm(mu.denom, nu.denom, step.denominator)

    def scaled(x):
        return x.numerator * denom // x.denominator

    dist = [[scaled(point_distance(q, p)) for p, _ in mu_atoms] for q, _ in nu_atoms]
    nu_masses = [scaled(m) for _, m in nu_atoms]
    subsets = []
    for r in range(1, 1 << len(mu_atoms)):
        members = [i for i in range(len(mu_atoms)) if r >> i & 1]
        mass_mu = sum(scaled(mu_atoms[i][1]) for i in members)
        nearest = [(min(row[i] for i in members), m) for row, m in zip(dist, nu_masses)]
        subsets.append((mass_mu, nearest))

    def feasible(delta):
        for mass_mu, nearest in subsets:
            mass_nu = sum(m for d, m in nearest if d < delta)
            if mass_mu > mass_nu + delta:
                return False
        return True

    lo, hi = 0, ceil(1 / step)  # delta = 1 is always feasible for probability measures
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(scaled(mid * step)):
            hi = mid
        else:
            lo = mid
    return hi * step


# -- construction -----------------------------------------------------------


def test_dirac_examples():
    assert dirac("").atoms == (("", Fraction(1)),)
    assert dirac("01").atoms == (("01", Fraction(1)),)
    assert dirac("0100") == dirac("01")  # equal as points
    assert dirac("0") == dirac("")
    # built from the integer weight 1, in the form the checked constructor gives
    for word in ("", "0", "01", "0100", "1011"):
        assert dirac(word) == atomic_measure([(word, Fraction(1))])
    with pytest.raises(ParameterError):
        dirac("012")


def test_measure_canonicalization():
    mu = atomic_measure([("10", Fraction(1, 2)), ("1", Fraction(1, 2))])
    assert mu.atoms == (("1", Fraction(1)),)
    with pytest.raises(ParameterError):
        atomic_measure([("0", Fraction(1, 2))])
    with pytest.raises(ParameterError):
        atomic_measure([("0", Fraction(3, 2)), ("1", Fraction(-1, 2))])
    # floats never enter, even when they are exact binary fractions
    with pytest.raises(ParameterError):
        atomic_measure([("", 0.5), ("1", 0.5)])


def test_pushforward_examples():
    mu = atomic_measure({"": Fraction(1, 2), "1": Fraction(1, 2)})
    assert pushforward(IDENTITY, mu) == mu
    # unit masses move with the point
    for z in ("", "01", "110"):
        assert pushforward(DOUBLE, dirac(z)) == dirac(DOUBLE.apply(z))
    # collision merge
    assert pushforward(MERGE, mu) == dirac("")


def test_pushforward_affine():
    rng = random.Random(3)
    for _ in range(20):
        mu = random_atomic_measure(rng)
        nu = random_atomic_measure(rng)
        w = Fraction(rng.randint(0, 8), 8)
        mixed = convex_combine([(w, mu), (1 - w, nu)])
        assert pushforward(DOUBLE, mixed) == convex_combine(
            [(w, pushforward(DOUBLE, mu)), (1 - w, pushforward(DOUBLE, nu))]
        )


def test_convex_combine_examples():
    mu, nu = dirac(""), dirac("1")
    assert convex_combine([(Fraction(1), mu), (Fraction(0), nu)]) == mu
    half = convex_combine([(Fraction(1, 2), mu), (Fraction(1, 2), nu)])
    assert half.atoms == (("", Fraction(1, 2)), ("1", Fraction(1, 2)))
    with pytest.raises(ParameterError):
        convex_combine([(Fraction(1, 2), mu), (Fraction(1, 3), nu)])
    with pytest.raises(ParameterError):
        convex_combine([(0.25, mu), (0.75, nu)])


def test_cell_masses_examples():
    p2 = standard_partition(2)
    masses = cell_masses(dirac("01"), p2)
    assert masses["01"] == 1 and sum(masses.values()) == 1
    uniform = atomic_measure({c.rstrip("0"): Fraction(1, 4) for c in p2.cells})
    assert set(cell_masses(uniform, p2).values()) == {Fraction(1, 4)}
    coarse = cell_masses(uniform, standard_partition(1))
    assert coarse == {"0": Fraction(1, 2), "1": Fraction(1, 2)}


# -- the integer form -------------------------------------------------------


def test_integer_form_is_one_form():
    """The same measure built four ways has one integer form, hash and repr."""
    merge_to_one = PrefixTableMap((("00", "0"), ("01", "1"), ("1", "1")))
    three = atomic_measure({"": Fraction(1, 3), "01": Fraction(1, 3), "1": Fraction(1, 3)})
    half = atomic_measure({"": Fraction(1, 2), "1": Fraction(1, 2)})
    built = [
        atomic_measure({"100": Fraction(2, 3), "0": Fraction(1, 3)}),
        pushforward(merge_to_one, three),
        convex_combine([(Fraction(2, 3), half), (Fraction(1, 3), dirac("1"))]),
        measure_from_lines(["1 2/3", "e 1/3"]),
    ]
    for mu in built:
        assert (mu.support, mu.weights, mu.denom) == (("", "1"), (1, 2), 3)
        assert mu == built[0] and hash(mu) == hash(built[0])
        assert mu.atoms == (("", Fraction(1, 3)), ("1", Fraction(2, 3)))
        assert mu.masses == (Fraction(1, 3), Fraction(2, 3))
        assert repr(mu) == "AtomicMeasure(atoms=(('', Fraction(1, 3)), ('1', Fraction(2, 3))))"
    # two atoms of 1/2 merging onto one point reduce to denominator 1
    merged = pushforward(MERGE, half)
    assert (merged.support, merged.weights, merged.denom) == (("",), (1,), 1)
    assert merged == dirac("") and hash(merged) == hash(dirac(""))
    assert repr(merged) == repr(dirac("")) == "AtomicMeasure(atoms=(('', Fraction(1, 1)),))"
    # integer weights with a common factor reduce to the same form and hash
    shared = _from_weights({"1": 4, "": 2}, 6)
    assert (shared.support, shared.weights, shared.denom) == (("", "1"), (1, 2), 3)
    assert shared == built[0] and hash(shared) == hash(built[0])
    # the integer builder still checks that the weights sum to the denominator
    for weights, denom in (({"": 1, "1": 1}, 3), ({"": 2}, 1), ({}, 1)):
        with pytest.raises(ParameterError, match="sum to exactly 1"):
            _from_weights(weights, denom)


def test_constructor_keeps_the_boundary_checks():
    for build in (atomic_measure, lambda pairs: AtomicMeasure(tuple(pairs))):
        with pytest.raises(ParameterError, match="float"):
            build([("", 0.5), ("1", 0.5)])
        with pytest.raises(ParameterError, match="negative"):
            build([("0", Fraction(3, 2)), ("1", Fraction(-1, 2))])
        with pytest.raises(ParameterError, match="sum"):
            build([("0", Fraction(1, 2))])
        with pytest.raises(ParameterError, match="sum"):
            build([])
        with pytest.raises(ParameterError):
            build([("2", Fraction(1))])
        zero_dropped = build([("", Fraction(0)), ("1", Fraction(1))])
        assert zero_dropped.atoms == (("1", Fraction(1)),)
    with pytest.raises(ParameterError):
        convex_combine([(0.25, dirac("")), (0.75, dirac("1"))])


def _reference_pushforward(f, masses: dict) -> dict:
    out = {}
    for p, m in masses.items():
        q = f.apply(p)
        out[q] = out.get(q, Fraction(0)) + m
    return out


def _assert_reduced_form(mu):
    assert list(mu.support) == sorted(set(mu.support))
    assert all(p == canonical_point(p) for p in mu.support)
    assert all(w > 0 for w in mu.weights) and sum(mu.weights) == mu.denom
    assert gcd(*mu.weights) == 1


def test_integer_builders_match_fraction_definitions():
    """Differential against from-definition Fraction sums on random measures."""
    rng = random.Random(43)
    maps = [
        make_balloon_tower([(3, 2), (5, 2)], [2, 4]).table,
        make_dumbbell_tower((4, 2), 2, bar_length=1).table,
    ]
    partitions = [standard_partition(d) for d in range(4)]
    for _ in range(80):
        f = rng.choice(maps)
        mu = random_atomic_measure(rng, max_atoms=6)
        nu = random_atomic_measure(rng, max_atoms=6)
        image, expected = mu, dict(mu.atoms)
        for _ in range(rng.randint(1, 4)):
            image, expected = pushforward(f, image), _reference_pushforward(f, expected)
            _assert_reduced_form(image)
            assert image.atoms == tuple(sorted(expected.items()))

        w = Fraction(rng.randint(0, 12), 12)
        expected = {}
        for weight, m in ((w, image), (1 - w, nu)):
            for p, mass in m.atoms:
                if weight:
                    expected[p] = expected.get(p, Fraction(0)) + weight * mass
        mixed = convex_combine([(w, image), (1 - w, nu)])
        _assert_reduced_form(mixed)
        assert mixed.atoms == tuple(sorted(expected.items()))

        partition = rng.choice(partitions)
        cells = cell_masses(mixed, partition)
        assert cells == {
            c: sum((m for p, m in mixed.atoms if partition.cell_of(p) == c), Fraction(0))
            for c in partition.cells
        }
        prefixes = rng.sample(partition.cells, rng.randint(0, len(partition.cells)))
        assert mixed.mass_of_cylinders(prefixes) == sum(
            (m for p, m in mixed.atoms if any(point_in_cylinder(p, c) for c in prefixes)),
            Fraction(0),
        )


# -- the exact solver -------------------------------------------------------


def test_prohorov_basic_examples():
    mu = atomic_measure({"": Fraction(1, 2), "1": Fraction(1, 2)})
    nu = dirac("")
    result = prohorov(mu, nu, backend="both")
    assert result.value == Fraction(1, 2)
    assert result.witness_set == ("1",)
    assert prohorov_distance(mu, mu) == 0
    # on a tie the first interval attaining the value reports its binding set
    assert prohorov(dirac(""), dirac("1"), backend="both").witness_set == ("",)


def test_prohorov_dirac_formula_exhaustive_depth_5():
    words = {
        canonical_point("".join(bits))
        for k in range(6)
        for bits in product("01", repeat=k)
    }
    for z in sorted(words):
        for w in sorted(words):
            expected = min(point_distance(z, w), Fraction(1))
            assert prohorov_distance(dirac(z), dirac(w)) == expected


def test_backends_and_formulations_agree_on_random_pairs():
    rng = random.Random(17)
    for _ in range(60):
        mu = random_atomic_measure(rng, max_atoms=6)
        nu = random_atomic_measure(rng, max_atoms=6)
        enumerated = prohorov(mu, nu, backend="enumeration")
        value = enumerated.value
        closed = prohorov(mu, nu)
        assert (closed.value, closed.witness_set) == (value, enumerated.witness_set)
        flow = prohorov(mu, nu, backend="flow")
        assert (flow.value, flow.witness_set) == (value, enumerated.witness_set)
        assert prohorov_two_sided(mu, nu, backend="enumeration") == value
        assert prohorov_two_sided(mu, nu, backend="flow") == value
        bracket = grid_oracle_bracket(mu, nu)
        assert bracket - GRID_STEP <= value <= bracket


def test_enumeration_backend_size_guard():
    big = atomic_measure({format(i, "06b"): Fraction(1, 20) for i in range(20)})
    with pytest.raises(BackendSelectionError):
        prohorov(big, big, backend="enumeration")
    assert prohorov(big, big, backend="flow").value == 0
    assert prohorov(big, big, backend="both").value == 0  # closed form against flow
    assert prohorov(big, big).value == 0  # auto runs the closed form at every size


def _random_masses(rng, n, denom):
    """n positive integers that sum to ``denom``."""
    cuts = sorted(rng.sample(range(1, denom), n - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [denom])]


def test_flow_oracle_matches_enumeration_on_general_bipartite_masks():
    # closeness masks that no ultrametric gives: the flow oracle finds the
    # same maximum and the same least maximizing subset as brute force.  The
    # hand case's greedy start couples mu-atom 0 to nu-atom 0 and leaves
    # mu-atom 1 uncoupled, so only an augmenting path makes it maximum
    cases = [([1, 1], [1, 1], [0b11, 0b01])]
    rng = random.Random(29)
    for trial in range(3000):
        k, l = rng.randint(1, 8), rng.randint(1, 8)
        denom = 2**20 if trial % 3 == 0 else rng.randint(8, 64)
        mu, nu = _random_masses(rng, k, denom), _random_masses(rng, l, denom)
        density = rng.random()
        masks = [sum(1 << j for j in range(l) if rng.random() < density) for _ in range(k)]
        cases.append((mu, nu, masks))
    assert _g_flow(*cases[0]) == (0, ())
    for mu, nu, masks in cases:
        assert _g_flow(mu, nu, masks) == _g_enumeration(mu, nu, masks), (mu, nu, masks)


def _matrix_reference(mu, nu):
    """(value, witness set) from the k x l separations of mu's words against
    nu's: the thresholds are the distinct separations across the measures,
    and each interval's g and least maximizing subset come from every
    subset of mu's atoms, straight from the definition."""
    seps = [[separation(u, v) for v in nu.support] for u in mu.support]
    thresholds = [0] + sorted({n for row in seps for n in row if n}, reverse=True)
    for s, s_next in zip(thresholds, thresholds[1:] + [None]):
        close = [{j for j, n in enumerate(row) if n == 0 or 0 < s <= n} for row in seps]
        scores = {}
        for r in range(len(mu) + 1):
            for xs in combinations(range(len(mu)), r):
                near = set().union(*[close[i] for i in xs])
                scores[xs] = (sum(mu.masses[i] for i in xs)
                              - sum(nu.masses[j] for j in near))
        g = max(scores.values())
        if s_next is not None and g > Fraction(1, s_next):
            continue
        least = set(range(len(mu))).intersection(*[xs for xs, v in scores.items() if v == g])
        value = max(g, Fraction(1, s)) if s else g
        return value, tuple(mu.support[i] for i in sorted(least))


def test_gaps_within_one_measure_keep_value_and_witness():
    # the sorted form's thresholds include gaps between two words of one
    # measure; such a gap splits an interval of the k x l form in two, and
    # every backend still gives that form's value and least witness
    rng = random.Random(43)
    checked = 0
    while checked < 300:
        mu = random_atomic_measure(rng, max_atoms=5, max_depth=5)
        nu = random_atomic_measure(rng, max_atoms=5, max_depth=5)
        across = {separation(u, v) for u in mu.support for v in nu.support}
        if not set(_sorted_form(mu, nu)[3]) - across:
            continue
        expected = _matrix_reference(mu, nu)
        for backend in ("auto", "flow", "enumeration", "both"):
            got = prohorov(mu, nu, backend)
            assert (got.value, got.witness_set) == expected, (mu, nu, backend)
        for backend in ("flow", "enumeration"):
            assert prohorov_two_sided(mu, nu, backend) == expected[0]
        checked += 1


def test_enumeration_backend_bounds_both_sides():
    # one atom against more than the limit still asks for 2^l subset masses
    wide = atomic_measure({format(i, "05b"): Fraction(1, 17) for i in range(17)})
    assert len(wide) == ENUMERATION_LIMIT + 1
    for mu, nu in ((dirac(""), wide), (wide, dirac(""))):
        with pytest.raises(BackendSelectionError, match="per measure"):
            prohorov(mu, nu, backend="enumeration")
        with pytest.raises(BackendSelectionError, match="per measure"):
            prohorov_two_sided(mu, nu, backend="enumeration")
        assert prohorov(mu, nu, backend="flow").value == prohorov(mu, nu).value


@pytest.mark.parametrize("backend", ["both", "bogus", "auto"])
def test_two_sided_oracle_takes_only_flow_or_enumeration(backend):
    mu = atomic_measure({"": Fraction(1, 2), "1": Fraction(1, 2)})
    with pytest.raises(BackendSelectionError, match="two-sided"):
        prohorov_two_sided(mu, dirac(""), backend)
    assert prohorov_two_sided(mu, dirac("")) == Fraction(1, 2)


def test_metric_axioms_on_random_triples():
    rng = random.Random(23)
    for _ in range(40):
        mu = random_atomic_measure(rng, max_atoms=5)
        nu = random_atomic_measure(rng, max_atoms=5)
        rho = random_atomic_measure(rng, max_atoms=5)
        d_mn = prohorov_distance(mu, nu)
        assert d_mn >= 0
        assert d_mn == prohorov_distance(nu, mu)
        assert (d_mn == 0) == (mu == nu)
        assert prohorov_distance(mu, rho) <= d_mn + prohorov_distance(nu, rho)


mass_lists = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)
word_sets = st.sets(
    st.text(alphabet="01", max_size=4).map(canonical_point), min_size=1, max_size=5
)


@st.composite
def measures(draw):
    points = sorted(draw(word_sets))
    weights = [draw(st.integers(min_value=1, max_value=5)) for _ in points]
    total = sum(weights)
    return atomic_measure({p: Fraction(w, total) for p, w in zip(points, weights)})


@st.composite
def same_support_pairs(draw):
    """Two measures on one support, or a measure and itself."""
    mu = draw(measures())
    if draw(st.booleans()):
        return mu, mu
    weights = [draw(st.integers(min_value=1, max_value=5)) for _ in mu.support]
    total = sum(weights)
    return mu, atomic_measure({p: Fraction(w, total) for p, w in zip(mu.support, weights)})


@settings(max_examples=60, deadline=None)
@given(same_support_pairs())
def test_sorted_form_of_one_support_equals_the_merge(pair):
    mu, nu = pair
    words = sorted(set(mu.support) | set(nu.support))
    expected = (words, tuple(dict(zip(mu.support, mu.weights)).get(w, 0) for w in words),
                tuple(dict(zip(nu.support, nu.weights)).get(w, 0) for w in words),
                tuple(separation(u, v) for u, v in zip(words, words[1:])))
    got = _sorted_form(mu, nu)
    assert (list(got[0]),) + got[1:] == expected


@settings(max_examples=60, deadline=None)
@given(measures(), measures())
def test_one_sided_equals_two_sided_property(mu, nu):
    assert prohorov_distance(mu, nu) == prohorov_two_sided(mu, nu)


@settings(max_examples=40, deadline=None)
@given(measures(), measures())
def test_symmetry_property(mu, nu):
    assert prohorov_distance(mu, nu) == prohorov_distance(nu, mu)


# -- the three lemmas used throughout ---------------------------------------


def test_mass_difference_bound_on_random_pairs():
    """d(mu, nu) < delta <= min cell gap forces |mu(a) - nu(a)| < delta."""
    rng = random.Random(31)
    checked = 0
    while checked < 60:
        mu = random_atomic_measure(rng, max_atoms=5, max_depth=3)
        nu = random_atomic_measure(rng, max_atoms=5, max_depth=3)
        depth = rng.randint(1, 3)
        partition = standard_partition(depth)
        gap = partition.min_gap()
        d = prohorov_distance(mu, nu)
        if not d < gap:
            continue
        delta = d + Fraction(gap - d, 2)
        mm, nn = cell_masses(mu, partition), cell_masses(nu, partition)
        assert all(abs(mm[c] - nn[c]) < delta for c in partition.cells)
        checked += 1


def test_cellwise_closeness_bounds_distance():
    """|mu(a) - nu(a)| <= mesh/card for all cells gives d <= mesh."""
    rng = random.Random(37)
    for _ in range(60):
        depth = rng.randint(1, 3)
        partition = standard_partition(depth)
        cells = partition.cells
        mesh = partition.mesh()
        bound = mesh / len(cells)
        base = [Fraction(1, len(cells))] * len(cells)
        # random perturbation within the bound, zero-sum
        deltas = [Fraction(rng.randint(-4, 4), 1) * bound / 8 for c in cells]
        shift = sum(deltas) / len(cells)
        deltas = [d - shift for d in deltas]
        mu = atomic_measure(
            {c.rstrip("0"): b for c, b in zip(cells, base)}
        )
        nu = atomic_measure(
            {c.rstrip("0"): b + d for c, b, d in zip(cells, base, deltas)}
        )
        mm, nn = cell_masses(mu, partition), cell_masses(nu, partition)
        assert all(abs(mm[c] - nn[c]) <= bound for c in cells)
        assert prohorov_distance(mu, nu) <= mesh


def test_interpolation_step_bound():
    """d((1-(n+1)t)mu + (n+1)t nu, (1-nt)mu + nt nu) <= t, exactly."""
    rng = random.Random(41)
    for _ in range(60):
        mu = random_atomic_measure(rng, max_atoms=4)
        nu = random_atomic_measure(rng, max_atoms=4)
        t = Fraction(1, rng.randint(2, 9))
        n = rng.randint(0, int(1 / t) - 1)
        if 1 - (n + 1) * t <= 0:
            continue
        a = convex_combine([(1 - (n + 1) * t, mu), ((n + 1) * t, nu)])
        b = convex_combine([(1 - n * t, mu), (n * t, nu)])
        assert prohorov_distance(a, b) <= t


def test_interpolation_instance_from_diracs():
    mixed = convex_combine([(Fraction(1, 2), dirac("")), (Fraction(1, 2), dirac("1"))])
    assert prohorov_distance(mixed, dirac("")) == Fraction(1, 2)


# -- the memos ----------------------------------------------------------------


@pytest.mark.parametrize("backend", ["auto", "flow", "enumeration", "both"])
def test_memoised_solve_equals_a_fresh_one(backend):
    rng = random.Random(29)
    for _ in range(20):
        mu = random_atomic_measure(rng, max_atoms=6)
        nu = random_atomic_measure(rng, max_atoms=6)
        prohorov(mu, nu, backend)
        hits = _solved_problem.cache_info().hits
        # equal measures built anew share the problem memo's entry
        cached = prohorov(atomic_measure(mu.atoms), atomic_measure(nu.atoms), backend)
        assert _solved_problem.cache_info().hits == hits + 1
        tables.reset()
        fresh = prohorov(mu, nu, backend)
        assert (cached.value, cached.witness_set, cached.backend) == (
            fresh.value, fresh.witness_set, fresh.backend)


@pytest.mark.parametrize("backend", ["auto", "flow", "enumeration", "both"])
def test_integer_problem_memo_serves_other_words(backend):
    # every first difference is at index 0 or 1, so inserting a 0 at index 2
    # keeps the order of the words, the masses and the gaps between the
    # sorted words, and changes the words
    pair_a = (atomic_measure({"001": Fraction(1, 10), "111": Fraction(9, 10)}),
              atomic_measure({"011": Fraction(3, 10), "101": Fraction(7, 10)}))
    pair_b = (atomic_measure({"0001": Fraction(1, 10), "1101": Fraction(9, 10)}),
              atomic_measure({"0101": Fraction(3, 10), "1001": Fraction(7, 10)}))
    nu_c = atomic_measure({"0101": Fraction(7, 10), "1001": Fraction(3, 10)})
    words_a, *key_a = _sorted_form(*pair_a)
    words_b, *key_b = _sorted_form(*pair_b)
    assert key_a == key_b == [(1, 0, 0, 9), (0, 3, 7, 0), (2, 1, 2)]
    assert words_a != words_b

    def fresh(mu, nu):
        tables.reset()
        return prohorov(mu, nu, backend)

    expected_b, expected_c = fresh(*pair_b), fresh(pair_b[0], nu_c)
    assert expected_b.witness_set and expected_b.value != expected_c.value
    fresh(*pair_a)
    info = _solved_problem.cache_info()
    got_b = prohorov(*pair_b, backend)
    assert _solved_problem.cache_info().hits == info.hits + 1
    # the timings count one problem solved and one call the memos answered
    counts = tables.counts()
    assert (counts["solves"], counts["solve_hits"]) == (1, 1)
    # the witness is reported in pair b's own words
    assert set(got_b.witness_set) <= set(pair_b[0].support)
    assert got_b == expected_b
    # other nu weights over the same words and denominator are another problem
    assert prohorov(pair_b[0], nu_c, backend) == expected_c
    assert _solved_problem.cache_info().misses == info.misses + 1


@settings(max_examples=40, deadline=None)
@given(measures(), measures())
def test_value_only_solve_equals_prohorov_value(mu, nu):
    # on empty tables and on tables the other function filled, through the
    # one problem memo
    for backend in BACKENDS:
        tables.reset()
        value = prohorov_distance(mu, nu, backend)
        hits = _solved_problem.cache_info().hits
        warm = prohorov(mu, nu, backend)
        assert _solved_problem.cache_info().hits == hits + 1
        tables.reset()
        fresh = prohorov(mu, nu, backend)
        assert prohorov_distance(mu, nu, backend) == fresh.value
        assert _solved_problem.cache_info().hits == 1
        assert isinstance(value, Fraction) and value == warm.value == fresh.value


def _raised(call) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_value_only_solve_raises_as_prohorov(monkeypatch):
    big = atomic_measure({format(i, "06b"): Fraction(1, 20) for i in range(20)})
    half = atomic_measure({"0": Fraction(1, 2), "1": Fraction(1, 2)})
    # a flow oracle that couples nothing reports distance 1, and the closed
    # form 1/2, so a "both" solve raises
    monkeypatch.setitem(measures_module._ORACLES, "flow",
                        lambda mu_rows, nu_cols, masks: (sum(mu_rows), ()))
    cases = (
        (big, big, "enumeration", BackendSelectionError,
         f"enumeration backend limited to {ENUMERATION_LIMIT} atoms per measure, got 20 and 20"),
        (half, dirac("0"), "nope", BackendSelectionError, "unknown backend 'nope'"),
        (half, dirac("0"), "both", CertificationError, "backends disagree: 1/2 vs 1"),
    )
    tables.reset()
    for mu, nu, backend, error, message in cases:
        # twice each: a raised error is not kept, so it is raised again
        for solve in (prohorov, prohorov_distance) * 2:
            assert _raised(lambda: solve(mu, nu, backend)) == (error, message)
            assert _solved_problem.cache_info().currsize == 0
    assert prohorov_distance(half, dirac("0")) == prohorov(half, dirac("0")).value == Fraction(1, 2)


def test_library_distances_build_no_prohorov_result(monkeypatch):
    # profiles, target distances and entropy counts read values only: with
    # the result class unusable they give what they gave with it
    balloon = make_balloon_tower([(3, 2), (5, 2)], [2, 4])
    dumbbell = make_dumbbell_tower((4, 2), 2, bar_length=1)
    grid = simplex_grid(balloon.levels[0].partition(), 1)
    c0 = dumbbell.levels[0].components[0]
    bar, left = dirac(representative(c0.bar[0])), dirac(representative(c0.left[0]))
    # the target keeps mu's own padded window, or it does not and the joint
    # engine certifies the orbit with the target's words frozen
    own = (dumbbell.table, bar, left)
    joint = (dumbbell.table,
             atomic_measure({"01": Fraction(2, 3), "101": Fraction(1, 3)}),
             atomic_measure({"11": Fraction(1, 2), "110001": Fraction(1, 2)}))
    for f, mu, target, keeps in (own + (True,), joint + (False,)):
        pads = orbits._own_orbit(f, mu)[4]
        assert pads and orbits._keeps_window(pads, target.support) == keeps
    calls = (
        lambda: distance_profile(balloon.table, grid[2], grid[3]),
        lambda: distance_profile(dumbbell.table, bar, left),
        lambda: orbit_distance_to_target(*own),
        lambda: orbit_distance_to_target(*joint),
        lambda: entropy_estimate(balloon.table, grid, [Fraction(1, 2), Fraction(1, 3)], 3),
        lambda: entropy_estimate(dumbbell.table, [bar, left, dirac("")], [Fraction(1, 2)], 3),
    )
    tables.reset()
    expected = [call() for call in calls]
    assert [p.certificate for p in expected[:4]] == [
        "state-cycle", "padded-cycle", "padded-cycle", "padded-cycle"]

    def unusable(*args, **kwargs):
        raise AssertionError("a library distance built a ProhorovResult")

    monkeypatch.setattr(measures_module, "ProhorovResult", unusable)
    with pytest.raises(AssertionError, match="built a ProhorovResult"):
        prohorov(bar, left)
    for i, call in enumerate(calls):
        tables.reset()
        assert call() == expected[i], i


def test_solve_memo_keeps_each_backend_apart():
    mu = atomic_measure({"": Fraction(1, 2), "1": Fraction(1, 2)})
    nu = dirac("01")
    assert prohorov(mu, nu).backend == "closed_form"
    assert prohorov(mu, nu, backend="both").backend == "both"
    assert prohorov(mu, nu, backend="auto").backend == "closed_form"


def test_solve_memo_keeps_no_error():
    big = atomic_measure({format(i, "06b"): Fraction(1, 20) for i in range(20)})
    for _ in range(2):
        with pytest.raises(BackendSelectionError):
            prohorov(big, big, backend="enumeration")
        with pytest.raises(BackendSelectionError):
            prohorov(big, big, backend="nope")


def test_pushforward_memo_keys_maps_by_rules():
    h = make_dumbbell_tower((4, 2), 2, 1).table
    mu = random_atomic_measure(random.Random(3), max_atoms=8, max_depth=6)
    first = pushforward(h.invert(), mu)
    hits = _pushed.cache_info().hits
    second = pushforward(h.invert(), mu)  # an equal map, another object
    assert _pushed.cache_info().hits == hits + 1
    assert second == first
    masses = dict(mu.atoms)
    assert dict(first.atoms) == _reference_pushforward(h.invert(), masses)


def test_memos_are_bounded():
    # every memo or table in a module or class namespace of the package is
    # a registered lru_cache with a bound, and every registered one is found
    found = {}
    for info in pkgutil.iter_modules(cantordyn.__path__):
        module = importlib.import_module(f"cantordyn.{info.name}")
        for namespace in [vars(module)] + [vars(c) for c in vars(module).values()
                                           if inspect.isclass(c)]:
            found.update((id(obj), obj) for obj in namespace.values()
                         if hasattr(obj, "cache_info"))
    assert found.keys() == {id(cache) for _, cache in tables._TABLES}
    for cache in found.values():
        assert type(cache) is functools._lru_cache_wrapper
        assert cache.cache_info().maxsize is not None


def test_each_counter_names_one_table():
    # counts() gives each counter its one table's misses and hits
    counters = [counter for counter, _ in tables._TABLES]
    assert len(counters) == len(set(counters))
    tables.reset()
    h = make_dumbbell_tower((4, 2), 2, 1).table
    mu = random_atomic_measure(random.Random(7), max_atoms=6, max_depth=6)
    for _ in range(2):
        prohorov(mu, pushforward(h, mu))
        distance_profile(h, mu, mu)
    counts = tables.counts()
    assert len(counts) == 2 * len(counters)
    for counter, cache in tables._TABLES:
        info = cache.cache_info()
        hit_key = counter.removesuffix("s") + "_hits"
        assert (counts[counter], counts[hit_key]) == (info.misses, info.hits), counter


def test_reset_zeroes_every_count():
    tables.reset()
    h = make_dumbbell_tower((4, 2), 2, 1).table
    mu = random_atomic_measure(random.Random(7), max_atoms=6, max_depth=6)
    prohorov(mu, pushforward(h, mu))
    chain_connect_map(h, mu, mu, Fraction(1, 2), 3)
    distance_profile(h, mu, mu)
    counts = tables.counts()
    assert all(counts[counter] > 0 for counter, _ in tables._TABLES)
    tables.reset()
    assert set(tables.counts().values()) == {0}


def test_equal_measures_hash_equal_however_built():
    target = {"": Fraction(1, 2), "01": Fraction(1, 2)}
    built = [
        AtomicMeasure([("", Fraction(1, 4)), ("0", Fraction(1, 4)), ("01", Fraction(1, 2))]),
        atomic_measure({"000": Fraction(1, 2), "01": Fraction(1, 2)}),
        pushforward(DOUBLE, atomic_measure({"": Fraction(1, 2), "1": Fraction(1, 2)})),
        convex_combine([(Fraction(1, 2), dirac("")), (Fraction(1, 2), dirac("01"))]),
        pickle.loads(pickle.dumps(atomic_measure(target))),
    ]
    for mu in built:
        assert mu == atomic_measure(target)
        assert hash(mu) == hash(atomic_measure(target))
    assert len(set(built)) == 1


def test_unpickled_measure_hashes_as_one_built_in_its_process():
    # string hashes differ between processes, so a hash must not travel
    mu = atomic_measure({"01": Fraction(1, 3), "1": Fraction(2, 3)})
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    check = ("import pickle, sys; from cantordyn.measures import AtomicMeasure; "
             "mu = pickle.loads(sys.stdin.buffer.read()); "
             "assert hash(mu) == hash(AtomicMeasure(mu.atoms))")
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", check], input=pickle.dumps(mu),
                          env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()


def test_chain_steps_do_not_depend_on_the_memos():
    tower = make_balloon_tower([(3, 2), (5, 2)], [2, 4])
    partition = tower.levels[0].partition()
    rng = random.Random(5)
    mu = random_cell_measure(partition, rng, 4)
    nu = random_cell_measure(partition, rng, 4)
    delta = Fraction(1, 2)
    k0 = chain_step_count(delta)

    def step_distances(clear: bool) -> list:
        out = []
        for k in range(k0, k0 + 4):
            if clear:
                tables.reset()
            out.append(chain_connect_map(tower.table, mu, nu, delta, k).step_distances)
        return out

    fresh = step_distances(clear=True)
    hits = _chain_record.cache_info().hits
    assert step_distances(clear=False) == fresh
    # every length of the second pass is read off the one chain record
    assert _chain_record.cache_info().hits == hits + 4


# -- serialization ----------------------------------------------------------


def test_measure_roundtrip():
    mu = atomic_measure({"": Fraction(1, 3), "01": Fraction(1, 3), "1": Fraction(1, 3)})
    assert measure_from_lines(["e 1/3", "01 1/3", "1 1/3"]) == mu


def test_measure_parse_errors_carry_line_numbers():
    with pytest.raises(ParameterError, match="line 2"):
        measure_from_lines(["e 1/2", "bad-line"])
    with pytest.raises(ParameterError, match="line 1"):
        measure_from_lines(["01 one-half"])
