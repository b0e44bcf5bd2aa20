"""Chains, chain continuity, transitivity, equicontinuity, entropy, shadowing."""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from cantordyn import dynamics, measures, tables
from cantordyn.cantor import representative, standard_partition
from cantordyn.certs import Certificate, to_jsonable
from cantordyn.dynamics import (
    Chain,
    chain_connect_homeo,
    chain_connect_map,
    chain_continuity_test,
    chain_step_count,
    default_gamma,
    entropy_estimate,
    equicontinuity_certificate,
    equicontinuity_modulus,
    transitivity_check,
    verify_chain,
    weak_shadowing_refutation,
)
from cantordyn.errors import CertificationError, ParameterError
from cantordyn.grids import random_cell_measure, simplex_grid
from cantordyn.maps import PrefixTableMap
from cantordyn.measures import (
    atomic_measure,
    convex_combine,
    dirac,
    pushforward,
    pushforward_iter,
)
from cantordyn.orbits import distance_profile
from cantordyn.recurrence import (
    approx_by_periodic,
    recurrence_certificate,
    transient_perturbation,
)
from cantordyn.towers import make_balloon_tower, make_dumbbell_tower

SWAP = PrefixTableMap((("0", "1"), ("1", "0")))
IDENTITY = PrefixTableMap((("", ""),))
CONTRACTION = PrefixTableMap((("0", "00"), ("1", "000")))


def test_gamma_and_k0():
    # k0 satisfies (k0-1) gamma < 1 <= k0 gamma, and is minimal given delta
    for delta, expected_k0 in ((Fraction(3, 4), 2), (Fraction(1, 2), 3), (Fraction(1, 4), 5)):
        gamma = default_gamma(delta)
        assert 0 < gamma < delta
        k0 = chain_step_count(delta)
        assert (k0 - 1) * gamma < 1 <= k0 * gamma
        assert k0 == expected_k0
    # delta just above 1/2 admits a two-step chain
    assert chain_step_count(Fraction(51, 100)) == 2


def _largest_fraction_below(delta, max_denominator):
    """Brute-force oracle: the largest p/q < delta with q <= max_denominator."""
    best = Fraction(0)
    for q in range(1, max_denominator + 1):
        p = (delta.numerator * q - 1) // delta.denominator
        if p >= 1 and Fraction(p, q) > best:
            best = Fraction(p, q)
    return best


def test_default_gamma_matches_brute_force_oracle():
    checked = 0
    for b in range(2, 120):
        for a in range(1, b):
            if gcd(a, b) == 1:
                delta = Fraction(a, b)
                assert default_gamma(delta) == _largest_fraction_below(delta, 2 * b), delta
                checked += 1
    assert checked == 4353


@pytest.mark.parametrize("call", [
    lambda: default_gamma(0.5),
    lambda: chain_step_count(0.5),
    lambda: chain_step_count(1.5),
    lambda: chain_connect_map(SWAP, dirac(""), dirac("1"), 0.5, 3),
    lambda: chain_connect_map(SWAP, dirac(""), dirac("1"), 0.5, 1),
    lambda: chain_connect_homeo(SWAP, dirac(""), dirac("1"), 0.75, 2),
    lambda: chain_connect_homeo(SWAP, dirac(""), dirac("1"), 0.75, 0),
    lambda: verify_chain(SWAP, [dirac(""), dirac("1")], 0.5),
])
def test_chain_functions_reject_floats(call):
    # A float is reported as such before any range or length check: the
    # cases with delta 1.5, k = 1 or k = 0 would fail those checks too.
    with pytest.raises(ParameterError, match="float"):
        call()


_BALLOON = make_balloon_tower([(3, 2), (5, 2)], [2, 4])
_DUMBBELL = make_dumbbell_tower((4, 2), 2, bar_length=1)
_LOOP_MEASURE = dirac(representative(_BALLOON.levels[0].components[0].loop[0]))


@pytest.mark.parametrize("call", [
    lambda: chain_continuity_test(SWAP, 2, eps=0.25),
    lambda: chain_continuity_test(SWAP, 2, delta=0.5),
    lambda: weak_shadowing_refutation(_DUMBBELL, 0.25, Fraction(1, 2), []),
    lambda: weak_shadowing_refutation(_DUMBBELL, Fraction(1, 4), 0.5, []),
    lambda: equicontinuity_certificate(_BALLOON, 0.25),
    lambda: entropy_estimate(SWAP, [dirac("")], [0.5], 1),
    lambda: recurrence_certificate(_BALLOON, _LOOP_MEASURE, 0.25),
    lambda: transient_perturbation(_BALLOON, _LOOP_MEASURE, 0.25),
    lambda: approx_by_periodic(_BALLOON, _LOOP_MEASURE, 0.25),
    lambda: atomic_measure([("", 1.0)]),
    lambda: convex_combine([(0.5, dirac("")), (Fraction(1, 2), dirac("1"))]),
], ids=["continuity-eps", "continuity-delta", "shadowing-eps", "shadowing-delta",
        "equicontinuity", "entropy", "recurrence", "perturbation",
        "approx", "atomic-measure", "convex-combine"])
def test_entry_points_reject_floats(call):
    with pytest.raises(ParameterError, match="float"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: chain_continuity_test(_BALLOON.table, 0), "depth = 0 is below 1"),
    (lambda: chain_continuity_test(_BALLOON.table, 3, eps=Fraction(0)), "eps = 0 is not positive"),
    (lambda: chain_continuity_test(_BALLOON.table, 3, eps=Fraction(-1)),
     "eps = -1 is not positive"),
    (lambda: weak_shadowing_refutation(_DUMBBELL, Fraction(0), Fraction(1, 2), []),
     "eps = 0 is not positive"),
    (lambda: weak_shadowing_refutation(_DUMBBELL, Fraction(-1), Fraction(1, 2), []),
     "eps = -1 is not positive"),
    (lambda: entropy_estimate(SWAP, [dirac("")], [Fraction(1, 2)], 0), "n_max = 0 is below 1"),
    (lambda: entropy_estimate(SWAP, [dirac("")], [Fraction(1, 2)], -1), "n_max = -1 is below 1"),
    (lambda: entropy_estimate(SWAP, [dirac("")], [Fraction(0)], 2), "eps = 0 is not positive"),
    (lambda: entropy_estimate(SWAP, [dirac("")], [Fraction(-1, 2), Fraction(1, 2)], 2),
     "eps = -1/2 is not positive"),
    (lambda: entropy_estimate(SWAP, [], [Fraction(1, 2)], 2), "grid is empty"),
    (lambda: entropy_estimate(SWAP, [dirac("")], [], 2), "eps_list is empty"),
    (lambda: weak_shadowing_refutation(_DUMBBELL, Fraction(1, 4), Fraction(1, 2), []),
     "grid is empty"),
    (lambda: verify_chain(SWAP, [dirac("")], Fraction(1, 2)),
     "a chain needs at least two points, got 1"),
    (lambda: verify_chain(SWAP, [], Fraction(1, 2)), "a chain needs at least two points, got 0"),
], ids=["continuity-depth-0", "continuity-eps-0", "continuity-eps-negative", "shadowing-eps-0",
        "shadowing-eps-negative", "entropy-horizon-0", "entropy-horizon-negative", "entropy-eps-0",
        "entropy-eps-negative", "entropy-grid-empty", "entropy-eps-list-empty",
        "shadowing-grid-empty", "chain-one-point",
        "chain-no-points"])
def test_degenerate_values_raise_instead_of_a_vacuous_verdict(call, message):
    # depth 0 leaves no survivor set, so every level "survives as one cell";
    # no distance lies below an eps <= 0, and every gap is >= 2 * eps; an
    # entropy table up to n_max < 1 has no count at all, and at an eps <= 0
    # every pair is separated from step 0 on; with no grid measure the
    # refutation holds over nothing, an entropy table over
    # no measure or no eps counts nothing, and a chain of fewer than two
    # points has no step to verify
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("tower", [
    make_balloon_tower([(3, 2), (5, 2)], [2, 4]),
    make_dumbbell_tower((4, 2), 2, bar_length=1),
], ids=["balloon", "dumbbell"])
# the mixing steps of these deltas are 1/3 and 1/5
@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(1, 4)])
def test_chain_interpolants_match_convex_combine(tower, delta):
    rng = random.Random(11)
    f = tower.table
    partition = tower.levels[0].partition()
    step = default_gamma(delta)
    k0 = chain_step_count(delta)
    for _ in range(8):
        mu = random_cell_measure(partition, rng, 4)
        nu = random_cell_measure(partition, rng, 3)
        chain = chain_connect_map(f, mu, nu, delta, k0 + 1)
        for j in range(1, k0):
            expected = convex_combine(
                [(1 - j * step, pushforward_iter(f, mu, j)), (j * step, pushforward_iter(f, nu, j))]
            )
            assert chain.points[j] == expected


def test_k0_depends_only_on_delta():
    rng = random.Random(2)
    delta = Fraction(2, 3)
    k0 = chain_step_count(delta)
    maps = [SWAP, IDENTITY, CONTRACTION]
    for f in maps:
        for _ in range(3):
            mu = dirac("".join(rng.choice("01") for _ in range(3)))
            nu = dirac("".join(rng.choice("01") for _ in range(3)))
            chain = chain_connect_map(f, mu, nu, delta, k0)
            assert chain.length == k0


def test_chain_connect_map_endpoint_exact():
    mu = atomic_measure({"": Fraction(1, 2), "1": Fraction(1, 2)})
    nu = dirac("01")
    for k in range(3, 7):
        chain = chain_connect_map(SWAP, mu, nu, Fraction(1, 2), k)
        assert chain.points[-1] == pushforward_iter(SWAP, nu, k)
        assert all(d < Fraction(1, 2) for d in chain.step_distances)


def test_chain_from_dirac_lands_on_point_orbit():
    z = "01"
    chain = chain_connect_map(SWAP, dirac(""), dirac(z), Fraction(3, 4), 4)
    for _ in range(4):
        z = SWAP.apply(z)
    assert chain.points[-1] == dirac(z)


def test_chain_identical_measures_is_exact_orbit():
    mu = dirac("1")
    chain = chain_connect_map(SWAP, mu, mu, Fraction(1, 2), 3)
    assert all(d == 0 for d in chain.step_distances)
    assert chain.points == tuple(pushforward_iter(SWAP, mu, j) for j in range(4))


def test_chain_length_below_minimum_rejected():
    with pytest.raises(ParameterError):
        chain_connect_map(SWAP, dirac(""), dirac("1"), Fraction(1, 2), 2)


def _outcome(connect, *args):
    """The chain a call returns, or the text of the CertificationError it raises."""
    try:
        return connect(*args)
    except CertificationError as exc:
        return str(exc)


@pytest.mark.parametrize("connect, tower", [
    (chain_connect_map, _BALLOON),
    (chain_connect_map, _DUMBBELL),
    (chain_connect_homeo, _DUMBBELL),
], ids=["balloon-map", "dumbbell-map", "dumbbell-homeo"])
@pytest.mark.parametrize("delta", [Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)])
def test_chain_record_gives_each_length_as_a_fresh_call(connect, tower, delta):
    # lengths k0..k0+3 in ascending order, in descending order, and each on
    # empty tables: the record must not make a chain depend on the order
    f = tower.table
    partition = tower.levels[0].partition()
    rng = random.Random(17)
    k0 = chain_step_count(delta)
    lengths = list(range(k0, k0 + 4))
    for _ in range(3):
        mu = random_cell_measure(partition, rng, 4)
        nu = random_cell_measure(partition, rng, 4)

        def build(order, fresh):
            tables.reset()
            out = {}
            for k in order:
                if fresh:
                    tables.reset()
                out[k] = _outcome(connect, f, mu, nu, delta, k)
            return out

        ascending = build(lengths, fresh=False)
        if connect is chain_connect_map:
            # one record, read by every longer length
            assert tables.counts()["chains"] == 1 and tables.counts()["chain_hits"] == 3
        assert build(lengths[::-1], fresh=False) == ascending
        assert build(lengths, fresh=True) == ascending
        for k, chain in ascending.items():
            assert isinstance(chain, Chain) and chain.length == k


@pytest.mark.parametrize("failing_step", range(6))
def test_a_failed_step_fails_exactly_the_chains_that_hold_it(monkeypatch, failing_step):
    f, delta = _BALLOON.table, Fraction(1, 2)
    k0 = chain_step_count(delta)
    lengths = list(range(k0, k0 + 4))
    rng = random.Random(23)
    partition = _BALLOON.levels[0].partition()
    mu = random_cell_measure(partition, rng, 4)
    nu = random_cell_measure(partition, rng, 4)
    tables.reset()
    full = chain_connect_map(f, mu, nu, delta, lengths[-1])
    steps = [(pushforward(f, a), b) for a, b in zip(full.points, full.points[1:])]
    # the solve of this step returns delta itself; an equal step earlier in
    # the chain fails first
    failing = steps[failing_step]
    first = steps.index(failing)
    solve = dynamics.prohorov_distance

    def solve_failing(a, b, backend="auto"):
        return delta if (a, b) == failing else solve(a, b, backend)

    monkeypatch.setattr(dynamics, "prohorov_distance", solve_failing)
    error = f"chain step distance {delta} is not below {delta}"
    expected = {k: error if k > first else
                Chain(full.points[:k + 1], delta, full.step_distances[:k]) for k in lengths}
    for order, fresh in ((lengths, False), (lengths[::-1], False),
                         ([k0 + 2, k0, k0 + 3, k0 + 1], False), (lengths, True)):
        tables.reset()
        for k in order:
            if fresh:
                tables.reset()
            assert _outcome(chain_connect_map, f, mu, nu, delta, k) == expected[k], (order, k)
        # asking again changes nothing, and the failed step was never verified
        for k in order:
            assert _outcome(chain_connect_map, f, mu, nu, delta, k) == expected[k], (order, k)
        record = dynamics._chain_record(f, mu, nu, delta, "auto")
        assert len(record.distances) == first


@pytest.mark.parametrize("failing_step", range(6))
def test_a_step_whose_solve_raises_is_solved_again_by_every_chain_that_holds_it(
        monkeypatch, failing_step):
    f, delta = _BALLOON.table, Fraction(1, 2)
    k0 = chain_step_count(delta)
    lengths = list(range(k0, k0 + 4))
    rng = random.Random(23)
    partition = _BALLOON.levels[0].partition()
    mu = random_cell_measure(partition, rng, 4)
    nu = random_cell_measure(partition, rng, 4)
    tables.reset()
    full = chain_connect_map(f, mu, nu, delta, lengths[-1])
    steps = [(pushforward(f, a), b) for a, b in zip(full.points, full.points[1:])]
    # the solve of this step raises, as a "both" solve of two backends that
    # disagree does; an equal step earlier in the chain raises first
    failing = steps[failing_step]
    first = steps.index(failing)
    error = "backends disagree: 1/2 vs 1/3"
    solve, raised = dynamics.prohorov_distance, []

    def solve_raising(a, b, backend="auto"):
        if (a, b) == failing:
            raised.append(1)
            raise CertificationError(error)
        return solve(a, b, backend)

    monkeypatch.setattr(dynamics, "prohorov_distance", solve_raising)
    expected = {k: error if k > first else
                Chain(full.points[:k + 1], delta, full.step_distances[:k]) for k in lengths}
    for order, fresh in ((lengths, False), (lengths[::-1], False),
                         ([k0 + 2, k0, k0 + 3, k0 + 1], False), (lengths, True)):
        tables.reset()
        raised.clear()
        for k in order + order:
            if fresh:
                tables.reset()
            assert _outcome(chain_connect_map, f, mu, nu, delta, k) == expected[k], (order, k)
        # every call that reaches the step solves it again: no error is replayed
        assert len(raised) == 2 * sum(k > first for k in order)
        record = dynamics._chain_record(f, mu, nu, delta, "auto")
        assert len(record.distances) == first


def test_chain_record_is_kept_per_backend(monkeypatch):
    # a "both" chain runs the flow oracle even after an "auto" chain of the
    # same inputs filled its record
    tables.reset()
    flow_calls = []
    flow = measures._ORACLES["flow"]

    def counted(*args):
        flow_calls.append(args)
        return flow(*args)

    monkeypatch.setitem(measures._ORACLES, "flow", counted)
    partition = _BALLOON.levels[0].partition()
    rng = random.Random(29)
    mu = random_cell_measure(partition, rng, 4)
    nu = random_cell_measure(partition, rng, 4)
    delta = Fraction(1, 2)
    auto = chain_connect_map(_BALLOON.table, mu, nu, delta, 4)
    assert not flow_calls
    assert chain_connect_map(_BALLOON.table, mu, nu, delta, 4, backend="both") == auto
    assert flow_calls


def _balloon_pair(seed):
    partition = _BALLOON.levels[0].partition()
    rng = random.Random(seed)
    return random_cell_measure(partition, rng, 4), random_cell_measure(partition, rng, 4)


@pytest.mark.parametrize("seed", [41, 43, 47])
def test_chains_re_verify_with_the_same_distances_under_auto_and_both(seed):
    # the chain loop's recorded distances are what verify_chain solves again
    # from the points alone, and the closed form and "both" agree on them
    f = _BALLOON.table
    mu, nu = _balloon_pair(seed)
    for delta in (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)):
        k0 = chain_step_count(delta)
        tables.reset()
        for k in range(k0, k0 + 4):
            auto, both = (chain_connect_map(f, mu, nu, delta, k, backend)
                          for backend in ("auto", "both"))
            assert auto == both and auto.length == k
            for chain, backend in product((auto, both), ("auto", "both")):
                assert verify_chain(f, chain.points, delta, backend) == chain


@pytest.mark.parametrize("extra", [0, 2])
def test_a_record_point_off_the_orbit_of_nu_fails_the_endpoint_check(extra):
    # the steps up to k are verified already, so only the endpoint check
    # can see the replaced point
    f, delta = _BALLOON.table, Fraction(1, 2)
    k = chain_step_count(delta) + extra
    mu, nu = _balloon_pair(31)
    tables.reset()
    chain = chain_connect_map(f, mu, nu, delta, k)
    record = dynamics._chain_record(f, mu, nu, delta, "auto")
    other = dirac("1") if chain.points[-1] != dirac("1") else dirac("0")
    record.points[k] = other
    with pytest.raises(CertificationError, match="^chain endpoint is not the exact image of nu$"):
        chain_connect_map(f, mu, nu, delta, k)


def test_chain_endpoints_are_checked_without_pushing_nu_again(monkeypatch):
    # nu's orbit comes from the record, so chain_connect_map never calls
    # pushforward_iter, and every length gives the chain it gave before
    f, delta = _BALLOON.table, Fraction(1, 2)
    k0 = chain_step_count(delta)
    lengths = range(k0, k0 + 4)
    mu, nu = _balloon_pair(37)
    tables.reset()
    expected = [chain_connect_map(f, mu, nu, delta, k) for k in lengths]

    def raiser(*args):
        raise AssertionError("pushforward_iter was called")

    monkeypatch.setattr(dynamics, "pushforward_iter", raiser)
    tables.reset()
    assert [chain_connect_map(f, mu, nu, delta, k) for k in lengths] == expected
    assert [c.points[-1] for c in expected] == [pushforward_iter(f, nu, k) for k in lengths]


def test_chain_connect_homeo_examples():
    chain = chain_connect_homeo(SWAP, dirac(""), dirac("1"), Fraction(3, 4), 2)
    assert chain.points[-1] == dirac("1")
    fixed = dirac("")
    chain = chain_connect_homeo(IDENTITY, fixed, fixed, Fraction(1, 2), 3)
    assert set(chain.points) == {fixed}
    with pytest.raises(ParameterError):
        chain_connect_homeo(CONTRACTION, dirac(""), dirac("1"), Fraction(1, 2), 3)


def test_verify_chain_rejects_bad_steps():
    with pytest.raises(CertificationError):
        verify_chain(SWAP, [dirac(""), dirac("")], Fraction(1, 2))


def test_chain_continuity_contraction_singleton():
    cert = chain_continuity_test(CONTRACTION, 3)
    assert cert.verdict == "chain_continuous_everywhere"
    assert cert.witnesses["nested_cells"] == ["0", "00", "000"]


def test_chain_continuity_balloon_refuted():
    tower = make_balloon_tower([(3, 2), (5, 2)], [2, 4])
    cert = chain_continuity_test(tower.table, 3, eps=Fraction(1, 4), delta=Fraction(1, 2))
    assert cert.verdict == "not_chain_continuous_anywhere"
    assert cert.witnesses["endpoint_gap"] >= Fraction(1, 2)
    assert len(cert.details["step_distances_a"]) == cert.witnesses["chain_length"]


def test_chain_continuity_dumbbell_refuted():
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    cert = chain_continuity_test(tower.table, 4, eps=Fraction(1, 4))
    assert cert.verdict == "not_chain_continuous_anywhere"
    assert cert.witnesses["endpoint_gap"] >= Fraction(1, 2)


def test_transitivity_examples():
    assert transitivity_check(SWAP, 1).verdict == "transitive"
    cert = transitivity_check(IDENTITY, 1)
    assert cert.verdict == "not_transitive"
    assert cert.witnesses["unreachable_pair"] == ["0", "1"]
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    cert = transitivity_check(tower.table, tower.levels[0].partition())
    assert cert.verdict == "not_transitive"
    a, b = cert.witnesses["unreachable_pair"]
    comps = tower.levels[0].components
    assert (a in comps[0].cells) != (b in comps[0].cells)


def test_equicontinuity_modulus_formula():
    # depth-2 standard partition: min gap 1/2, mesh 1/3, 4 cells
    assert equicontinuity_modulus(standard_partition(2)) == min(
        Fraction(1, 2), Fraction(1, 3) / 8
    )
    assert equicontinuity_modulus(standard_partition(2)) == Fraction(1, 24)


# every balloon tower that the tests build; a level with mesh below 1/4
# exists on the first three only, and none with mesh below 1/2 on the last
_BALLOON_SPECS = [
    ([(3, 2), (5, 2)], [2, 4]), ([(2, 2), (4, 2)], [1, 4]), ([(5, 3), (7, 3)], [2, 4]),
    ([(5, 3)], [1]), ([(3, 2), (5, 2)], [1, 2]), ([(2, 2)], [1]), ([(3, 2), (6, 3)], [1, 2]),
    ([(2, 2), (4, 2)], [1, 2]), ([(3, 1), (6, 2)], [1, 2]), ([(3, 2)], [1]), ([(1, 1)], [1]),
]


def test_equicontinuity_certificate_on_balloon_tower():
    for (levels, counts), eps in product(_BALLOON_SPECS, (Fraction(1, 2), Fraction(1, 4))):
        tower = make_balloon_tower(levels, counts)
        if tower.levels[-1].partition().mesh() >= eps:
            with pytest.raises(ParameterError, match=f"no certified level has mesh below {eps}"):
                equicontinuity_certificate(tower, eps)
            continue
        cert = equicontinuity_certificate(tower, eps)
        level = tower.level_with_mesh_below(eps)
        partition = tower.levels[level].partition()
        assert cert.passed and cert.verdict == "equicontinuous_at_modulus"
        assert cert.witnesses == {
            "delta": equicontinuity_modulus(partition), "level": level,
            "cells": len(partition), "bound": partition.mesh(),
        }
        assert cert.witnesses["delta"] <= min(partition.min_gap(), partition.mesh())
        assert cert.witnesses["bound"] < eps
    with pytest.raises(ParameterError, match="applies to balloon towers"):
        equicontinuity_certificate(_DUMBBELL, Fraction(1, 2))


def test_equicontinuity_fails_where_a_cell_image_splits():
    # the dumbbell's digraph relabelled as a balloon tower's: the first cell
    # of each left loop, 0000 and 1000, maps onto the loop's other cell and
    # onto the bar
    tower = dataclasses.replace(_DUMBBELL, kind="balloon")
    cert = equicontinuity_certificate(tower, Fraction(1, 2))
    assert not cert.passed and cert.verdict == "modulus_violated"
    assert cert.witnesses["split_cells"] == {"0000": ["0001", "001"], "1000": ["1001", "101"]}
    assert "bound" not in cert.witnesses
    assert cert.payload()["witnesses"]["level"] == 0


def test_entropy_identity_independent_of_horizon():
    grid = [dirac(""), dirac("1"), dirac("01")]
    table = entropy_estimate(IDENTITY, grid, [Fraction(1, 2)], 4)
    counts = {n: table.counts[(n, Fraction(1, 2))] for n in table.horizons}
    assert len(set(counts.values())) == 1


def test_entropy_swap_grid_fully_separated():
    grid = [dirac(""), dirac("1")]
    table = entropy_estimate(SWAP, grid, [Fraction(1, 2)], 5)
    assert all(table.counts[(n, Fraction(1, 2))] == 2 for n in table.horizons)


def test_entropy_balloon_slope_zero():
    tower = make_balloon_tower([(2, 2)], [1])
    grid = simplex_grid(tower.levels[0].partition(), 2)
    assert len(grid) <= 25  # exact branch-and-bound regime
    table = entropy_estimate(tower.table, grid, [Fraction(1, 2), Fraction(1, 4)], 6)
    assert table.exact
    for eps in table.eps_list:
        assert table.is_monotone_in_n(eps)
        assert table.normalized_log_nonincreasing(eps)
        assert table.slope_zero_at_horizon(eps)


def test_entropy_counts_each_eps_of_an_unsorted_list_with_repeats():
    tower = make_balloon_tower([(3, 2), (5, 2)], [2, 4])
    grid = simplex_grid(tower.levels[0].partition(), 1)
    eps_list = [Fraction(1, 3), Fraction(1), Fraction(1, 2), Fraction(1), Fraction(1, 3)]
    table = entropy_estimate(tower.table, grid, eps_list, 3)
    assert table.eps_list == tuple(eps_list)
    for eps in set(eps_list):
        alone = entropy_estimate(tower.table, grid, [eps], 3)
        assert {n: table.counts[(n, eps)] for n in table.horizons} == \
            {n: alone.counts[(n, eps)] for n in alone.horizons}
    # the counts differ between the eps and between the horizons
    assert table.counts[(1, Fraction(1))] < table.counts[(1, Fraction(1, 2))]
    assert table.counts[(1, Fraction(1, 2))] < table.counts[(2, Fraction(1, 2))]


def _reference_counts(f, grid, eps_list, n_max):
    """N(n, eps) from the definition: the largest subsets of the grid whose
    pairs all have some d_k >= eps with k < n, tested as Fractions."""
    profiles = {(i, j): distance_profile(f, grid[i], grid[j])
                for i, j in combinations(range(len(grid)), 2)}
    counts = {}
    for n in range(1, n_max + 1):
        for eps in eps_list:
            separated = {pair for pair, prof in profiles.items()
                         if any(eps <= prof.value_at(k) for k in range(n))}
            counts[(n, eps)] = max(
                size for size in range(1, len(grid) + 1)
                for subset in combinations(range(len(grid)), size)
                if all(pair in separated for pair in combinations(subset, 2)))
    return counts


def test_entropy_eps_boundary_is_inclusive():
    tower = make_balloon_tower([(3, 2), (5, 2)], [2, 4])
    grid = simplex_grid(tower.levels[0].partition(), 1)
    # d_1 = 1/2 exactly, after d_0 = 1/3: the pair is joined at eps = 1/2
    # from horizon 2 on, and never at 3/5, which no distance reaches
    pair = [grid[2], grid[3]]
    assert distance_profile(tower.table, *pair).values == (
        Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), Fraction(1, 3))
    half, unreached = Fraction(1, 2), Fraction(3, 5)
    table = entropy_estimate(tower.table, pair, [unreached, half], 4)
    assert [table.counts[(n, half)] for n in table.horizons] == [1, 2, 2, 2]
    assert [table.counts[(n, unreached)] for n in table.horizons] == [1, 1, 1, 1]
    # on the whole grid every count is the definition's, at eps equal to a
    # distance (1/3, 1/2, 1), between distances (2/5) and above every one (3/2)
    eps_list = [Fraction(1, 3), half, Fraction(2, 5), Fraction(1), Fraction(3, 2)]
    values = {d for i, j in combinations(range(len(grid)), 2)
              for d in distance_profile(tower.table, grid[i], grid[j]).values}
    assert {Fraction(1, 3), half, Fraction(1)} <= values and max(values) < Fraction(3, 2)
    assert Fraction(2, 5) not in values
    table = entropy_estimate(tower.table, grid, eps_list, 4)
    assert table.counts == _reference_counts(tower.table, grid, eps_list, 4)
    assert {table.counts[(n, Fraction(3, 2))] for n in table.horizons} == {1}


def test_weak_shadowing_refutation():
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    grid = simplex_grid(tower.levels[0].partition(), 1)  # all unit cell masses
    cert = weak_shadowing_refutation(tower, Fraction(1, 4), Fraction(1, 2), grid)
    assert cert.passed and cert.verdict == "refuted_on_grid"
    assert all(d < Fraction(1, 2) for d in cert.witnesses["core_steps"])
    for row in cert.details["grid_minima"]:
        assert row["min_to_first"] >= Fraction(1, 4) or row["min_to_second"] >= Fraction(1, 4)


def test_weak_shadowing_degenerate_grid():
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    start = dirac(representative(tower.levels[0].components[0].left[0]))
    cert = weak_shadowing_refutation(tower, Fraction(1, 4), Fraction(1, 2), [start])
    assert cert.passed  # the trajectory's own start fails the two-ball test
    row = cert.details["grid_minima"][0]
    assert row["min_to_first"] == 0 and row["min_to_second"] >= Fraction(1, 4)


def test_weak_shadowing_declines_without_cross_component_pair():
    single = make_dumbbell_tower((4, 2), 1, bar_length=1)
    with pytest.raises(ParameterError):
        weak_shadowing_refutation(single, Fraction(1, 4), Fraction(1, 2), [dirac("")])


def test_certificate_payload_is_exact():
    cert = Certificate(
        operation="demo",
        passed=True,
        verdict="ok",
        parameters={"eps": Fraction(1, 3)},
        witnesses={"measure": dirac("01"), "set": {"b", "a"}},
    )
    payload = cert.payload()
    assert payload["parameters"]["eps"] == "1/3"
    assert payload["witnesses"]["measure"] == [["01", "1"]]
    assert payload["witnesses"]["set"] == ["a", "b"]
    with pytest.raises(TypeError):
        to_jsonable(0.5)
