"""Periodic measures, refinement consistency, and the recurrence pipeline."""

import random
from fractions import Fraction

import pytest

from cantordyn.cantor import representative
from cantordyn.errors import ParameterError
from cantordyn.measures import (
    atomic_measure,
    cell_masses,
    convex_combine,
    dirac,
    prohorov_distance,
    pushforward_iter,
)
from cantordyn.recurrence import (
    AdmissibleChoice,
    _loop_classes,
    approx_by_periodic,
    consistency_check,
    enumerate_admissible_choices,
    loop_support_check,
    periodic_measure,
    recurrence_certificate,
    transient_perturbation,
)
from cantordyn.towers import make_balloon_tower, make_dumbbell_tower


@pytest.fixture(scope="module")
def q3_tower():
    return make_balloon_tower([(5, 3), (7, 3)], [2, 4])


@pytest.fixture(scope="module")
def dumbbell_tower():
    return make_dumbbell_tower((4, 2), 2, bar_length=1)


def test_periodic_measure_pattern_q6(q3_tower):
    # loop length 6, period 2, offset 1: mass 1/3 on loop cells 1, 3, 5
    choice = AdmissibleChoice(components=(0,), offset=1, period=2)
    mu = periodic_measure(q3_tower, choice, level=0)
    loop = q3_tower.levels[0].components[0].loop
    expected = {representative(loop[i]): Fraction(1, 3) for i in (0, 2, 4)}
    assert dict(mu.atoms) == expected


def test_periodic_measure_uniform_fixed_point(q3_tower):
    choice = AdmissibleChoice(components=(0,), offset=1, period=1)
    mu = periodic_measure(q3_tower, choice, level=0)
    assert set(m for _, m in mu.atoms) == {Fraction(1, 6)}
    assert pushforward_iter(q3_tower.table, mu, 1) == mu


@pytest.mark.parametrize("p", [1, 2, 3, 6])
def test_exact_period_all_divisors(q3_tower, p):
    choice = AdmissibleChoice(components=(0, 0), offset=1, period=p)
    for level in (0, 1):
        mu = periodic_measure(q3_tower, choice, level=level)
        assert pushforward_iter(q3_tower.table, mu, p) == mu
        for j in range(1, p):
            assert pushforward_iter(q3_tower.table, mu, j) != mu


def test_period_must_divide_loop(q3_tower):
    with pytest.raises(ParameterError):
        periodic_measure(
            q3_tower, AdmissibleChoice(components=(0,), period=4), level=0
        )


def test_distinct_choices_distinct_measures(q3_tower):
    choices = enumerate_admissible_choices(q3_tower, period=2)
    assert len(choices) >= 8
    measures = [periodic_measure(q3_tower, c, level=1) for c in choices]
    for i in range(len(measures)):
        for j in range(i + 1, len(measures)):
            assert prohorov_distance(measures[i], measures[j]) > 0


def test_admissible_nesting_enforced(q3_tower):
    comps1 = q3_tower.levels[1].components
    wrong = next(
        ci for ci, comp in enumerate(comps1) if comp.parent != 0
    )
    with pytest.raises(ParameterError):
        periodic_measure(
            q3_tower,
            AdmissibleChoice(components=(0, wrong), period=2),
            level=1,
        )


def test_consistency_check(q3_tower):
    for choice in enumerate_admissible_choices(q3_tower, period=2):
        cert = consistency_check(q3_tower, choice, 0, 1)
        assert cert.passed
    uniform = consistency_check(
        q3_tower, AdmissibleChoice(components=(0, 0), period=1), 0, 1
    )
    assert uniform.passed


def test_consistency_detects_broken_aggregation(q3_tower):
    # compare the level-0 masses of two choices that diverge at level 1:
    # same coarse component, different fine loops -> same aggregate, but a
    # deliberately mismatched offset breaks the identity
    good = AdmissibleChoice(components=(0, 0), offset=1, period=2)
    mu_fine = periodic_measure(q3_tower, AdmissibleChoice((0, 0), 2, 2), level=1)
    coarse = q3_tower.levels[0].partition()
    masses_fine = cell_masses(mu_fine, coarse)
    masses_coarse = cell_masses(periodic_measure(q3_tower, good, 0), coarse)
    assert masses_fine != masses_coarse


def test_loop_support_check_examples(q3_tower):
    choice = AdmissibleChoice(components=(0,), period=2)
    mu = periodic_measure(q3_tower, choice, level=0)
    assert loop_support_check(q3_tower, mu).passed
    bar = dirac(representative(q3_tower.levels[0].components[0].path[2]))
    cert = loop_support_check(q3_tower, bar)
    assert not cert.passed
    assert cert.witnesses["violations"][0]["mass"] == 1
    lam = Fraction(1, 3)
    mixed = convex_combine([(1 - lam, mu), (lam, bar)])
    cert = loop_support_check(q3_tower, mixed)
    assert not cert.passed
    assert cert.witnesses["violations"][0]["mass"] == lam


def test_loop_support_check_dumbbell_preimages(dumbbell_tower):
    comp = dumbbell_tower.levels[0].components[0]
    h = dumbbell_tower.table
    # a point that will reach the bar: preimage mass must be detected
    pre_bar = h.invert().apply(representative(comp.bar[0]))
    cert = loop_support_check(dumbbell_tower, dirac(pre_bar))
    assert not cert.passed
    assert any("preimage" in v["kind"] for v in cert.witnesses["violations"])
    loop_mu = periodic_measure(
        dumbbell_tower, AdmissibleChoice(components=(0,), period=2), level=0
    )
    assert loop_support_check(dumbbell_tower, loop_mu).passed


def test_recurrence_certificate(q3_tower):
    choice = AdmissibleChoice(components=(0,), period=3)
    mu = periodic_measure(q3_tower, choice, level=0)
    cert = recurrence_certificate(q3_tower, mu, Fraction(1, 4))
    assert cert.passed
    assert cert.witnesses["distance"] == 0  # invariant under the full loop power
    bar = dirac(representative(q3_tower.levels[0].components[0].path[0]))
    with pytest.raises(ParameterError):
        recurrence_certificate(q3_tower, bar, Fraction(1, 4))


def test_recurrence_certificate_nonuniform_loop_measure(q3_tower):
    loop = q3_tower.levels[0].components[0].loop
    mu = atomic_measure(
        {
            representative(loop[0]): Fraction(1, 2),
            representative(loop[1]): Fraction(1, 4),
            representative(loop[2]): Fraction(1, 4),
        }
    )
    cert = recurrence_certificate(q3_tower, mu, Fraction(1, 4))
    assert cert.passed
    assert cert.witnesses["distance"] == 0


def test_transient_perturbation(q3_tower):
    choice = AdmissibleChoice(components=(0,), period=2)
    mu = periodic_measure(q3_tower, choice, level=0)
    for lam in (Fraction(1, 4), Fraction(1, 8)):
        mu_lam, cert = transient_perturbation(q3_tower, mu, lam)
        assert cert.passed
        assert cert.witnesses["distance"] <= lam
        assert cert.witnesses["transient_mass"] >= lam
        # periodicity is destroyed
        assert pushforward_iter(q3_tower.table, mu_lam, 2) != mu_lam
    with pytest.raises(ParameterError):
        transient_perturbation(q3_tower, mu, Fraction(0))
    with pytest.raises(ParameterError):
        transient_perturbation(q3_tower, mu, Fraction(1))


def test_transient_perturbation_dumbbell(dumbbell_tower):
    mu = periodic_measure(
        dumbbell_tower, AdmissibleChoice(components=(0,), period=1), level=0
    )
    mu_lam, cert = transient_perturbation(dumbbell_tower, mu, Fraction(1, 4))
    assert cert.passed
    assert not loop_support_check(dumbbell_tower, mu_lam).passed


def test_approx_by_periodic_exact_on_invariant(q3_tower):
    choice = AdmissibleChoice(components=(0,), period=2)
    mu = periodic_measure(q3_tower, choice, level=0)
    mu_prime, cert = approx_by_periodic(q3_tower, mu, Fraction(1, 4))
    assert cert.passed
    assert cert.witnesses["distance"] == 0
    assert mu_prime == mu  # the decomposition reproduces an invariant measure


def test_approx_by_periodic_equalizes_near_invariant(q3_tower):
    level = q3_tower.level_with_mesh_below(Fraction(1, 4))
    partition = q3_tower.levels[level].partition()
    m = q3_tower.levels[level].loop_length
    delta = min(partition.min_gap(), partition.mesh() / (2 * m * len(partition)))
    loop = q3_tower.levels[level].components[0].loop
    imbalance = delta / 4
    masses = {representative(c): Fraction(1, 6) for c in loop}
    masses[representative(loop[0])] += imbalance
    masses[representative(loop[1])] -= imbalance
    mu = atomic_measure(masses)
    mu_prime, cert = approx_by_periodic(q3_tower, mu, Fraction(1, 4))
    assert cert.passed
    assert mu_prime != mu
    assert pushforward_iter(q3_tower.table, mu_prime, cert.parameters["return_time"]) == mu_prime
    assert prohorov_distance(mu_prime, mu) < Fraction(1, 4)
    assert cert.details["cellwise_ok"]


def test_approx_by_periodic_dumbbell_both_loops(dumbbell_tower):
    left = dumbbell_tower.levels[0].components[0].left
    right = dumbbell_tower.levels[0].components[1].right
    mu = atomic_measure(
        {
            representative(left[0]): Fraction(1, 4),
            representative(left[1]): Fraction(1, 4),
            representative(right[0]): Fraction(1, 2),
        }
    )
    mu_prime, cert = approx_by_periodic(dumbbell_tower, mu, Fraction(1, 3))
    assert cert.passed
    p = cert.parameters["return_time"]
    assert pushforward_iter(dumbbell_tower.table, mu_prime, p) == mu_prime
    kinds = {(c["component"], c["loop"]) for c in cert.details["classes"]}
    assert (0, "left") in kinds and (1, "right") in kinds


def test_approx_declines_on_transient_measure(q3_tower):
    bar = dirac(representative(q3_tower.levels[0].components[0].path[0]))
    with pytest.raises(ParameterError):
        approx_by_periodic(q3_tower, bar, Fraction(1, 4))


def test_left_loop_periodic_measures(dumbbell_tower):
    choice = AdmissibleChoice(components=(0,), period=2, loop="left")
    mu = periodic_measure(dumbbell_tower, choice, level=0)
    assert pushforward_iter(dumbbell_tower.table, mu, 2) == mu
    assert pushforward_iter(dumbbell_tower.table, mu, 1) != mu
    with pytest.raises(ParameterError):
        periodic_measure(
            make_balloon_tower([(2, 2)], [1]),
            AdmissibleChoice(components=(0,), period=1, loop="left"),
            level=0,
        )


def test_loop_support_closed_under_pushforward(q3_tower):
    mu = periodic_measure(q3_tower, AdmissibleChoice((0,), period=3), level=0)
    for j in range(1, 7):
        image = pushforward_iter(q3_tower.table, mu, j)
        assert loop_support_check(q3_tower, image).passed


def _rational_average(tower, mu, level, p):
    """The periodic approximation of mu at return time p, built as a convex
    combination of uniform class measures with rational masses."""
    level_obj = tower.levels[level]
    masses = cell_masses(mu, level_obj.partition())
    pieces = []
    for comp in level_obj.components:
        for which in comp.LOOPS:
            cells = comp.loop_cells(which)
            for cls in _loop_classes(cells, p):
                total = sum(masses[cells[i]] for i in cls)
                if total:
                    uniform = {representative(cells[i]): Fraction(1, len(cls)) for i in cls}
                    pieces.append((total, atomic_measure(uniform)))
    return convex_combine(pieces)


def test_recurrence_builders_match_the_rational_constructor(q3_tower, dumbbell_tower):
    # periodic measures and class averages are built from integer weights,
    # which skip the checks; the checked rational constructors must agree
    for tower, eps in ((q3_tower, Fraction(1, 4)), (dumbbell_tower, Fraction(1, 3))):
        for p in (1, 2):
            for choice in enumerate_admissible_choices(tower, p):
                level = len(choice.components) - 1
                m = tower.levels[level].loop_length
                loop = tower.levels[level].components[choice.components[-1]].loop_cells("right")
                mu = periodic_measure(tower, choice, level)
                assert mu == atomic_measure({
                    representative(loop[(choice.offset - 1 + j * p) % m]): Fraction(p, m)
                    for j in range(m // p)
                })
                mu_prime, cert = approx_by_periodic(tower, mu, eps)
                assert mu_prime == _rational_average(
                    tower, mu, cert.parameters["level"], cert.parameters["return_time"])
    rng = random.Random(9)
    level = q3_tower.level_with_mesh_below(Fraction(1, 4))
    loop = q3_tower.levels[level].components[0].loop
    for _ in range(5):
        # a near-invariant measure: uneven masses on one loop
        weights = [rng.randint(1_000, 1_001) for _ in loop]
        mu = atomic_measure({representative(c): Fraction(w, sum(weights))
                             for c, w in zip(loop, weights)})
        mu_prime, cert = approx_by_periodic(q3_tower, mu, Fraction(1, 4))
        assert mu_prime != mu
        assert mu_prime == _rational_average(q3_tower, mu, level, cert.parameters["return_time"])


def test_enumerate_admissible_choices_rejects_a_period_below_1(q3_tower):
    # a period below 1 has no choice, so the periodic-measure verdict held vacuously
    for period in (0, -2):
        with pytest.raises(ParameterError, match=f"period = {period} is below 1"):
            enumerate_admissible_choices(q3_tower, period)


def test_periodic_measure_needs_equal_loop_lengths_at_and_below_its_level():
    # the loops have length 2 at level 0 and 6 at level 1: the level-0
    # truncation of a period-1 choice through both levels is not invariant,
    # the level-1 one is
    tower = make_balloon_tower([(3, 2), (6, 3)], [1, 2])
    assert [level.loop_length for level in tower.levels] == [2, 6]
    for choice in enumerate_admissible_choices(tower, period=1):
        with pytest.raises(ParameterError) as info:
            periodic_measure(tower, choice, level=0)
        assert str(info.value) == (
            "measure is not exactly periodic at this level; the tower's loop "
            "lengths must be constant at and below the chosen level")
        mu = periodic_measure(tower, choice, level=1)
        assert mu.masses == (Fraction(1, 6),) * 6
        assert pushforward_iter(tower.table, mu, 1) == mu
