"""Periodic measures from nested component choices, loop-support checks,
recurrence certificates, and periodic approximation of recurrent measures.

A periodic measure is built from an *admissible choice*: one component per
certified tower level, each initial vertex nested in its predecessor's,
together with a loop offset t and a period p dividing the loop length.  The
measure puts mass p/m on the loop cells at positions t, t+p, ... (m the
loop length of the chosen level); its cell masses refine consistently
across levels, and on towers whose loop length is constant the measure is
exactly p-periodic under the induced map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from .cantor import representative
from .certs import Certificate
from .errors import ParameterError, ResourceBudgetError
from .measures import (
    AtomicMeasure,
    _combine,
    _exact,
    _from_weights,
    cell_masses,
    dirac,
    prohorov_distance,
    pushforward_iter,
)
from .orbits import orbit_distance_to_target
from .towers import MapTower


@dataclass(frozen=True)
class AdmissibleChoice:
    """A nested component selection with a loop offset and period.

    ``components[k]`` indexes a component of tower level k; each must be a
    child of the previous one.  ``loop`` names the loop that carries the
    mass, a key of the component's ``LOOPS``: "right" on every tower, "left"
    on dumbbells too; offset is 1-based.
    """

    components: tuple[int, ...]
    offset: int = 1
    period: int = 1
    loop: str = "right"


def _validate_choice(tower: MapTower, choice: AdmissibleChoice) -> None:
    if not 1 <= len(choice.components) <= len(tower.levels):
        raise ParameterError("choice must select components for a prefix of the levels")
    prev = None
    for k, ci in enumerate(choice.components):
        comps = tower.levels[k].components
        if not 0 <= ci < len(comps):
            raise ParameterError(f"no component {ci} at level {k}")
        if prev is not None and comps[ci].parent != prev:
            raise ParameterError("choice components are not nested (parent mismatch)")
        if choice.loop not in comps[ci].LOOPS:
            raise ParameterError(f"{tower.kind} components have no {choice.loop!r} loop")
        prev = ci


def periodic_measure(tower: MapTower, choice: AdmissibleChoice, level: int) -> AtomicMeasure:
    """The level truncation of the choice's periodic measure.

    Mass p/m on loop cells at positions offset, offset+p, ... (1-based,
    wrapping), atoms at cell representatives.  The result is verified to be
    exactly p-periodic under the induced map and an error is raised if it is
    not (this needs equal loop lengths at and below the chosen level).
    """
    _validate_choice(tower, choice)
    if not 0 <= level < len(choice.components):
        raise ParameterError("level must index a chosen component")
    m = tower.levels[level].loop_length
    p, t = choice.period, choice.offset
    if p < 1 or m % p != 0:
        raise ParameterError(f"period {p} does not divide the loop length {m}")
    if not 1 <= t <= m:
        raise ParameterError(f"offset {t} outside 1..{m}")
    comp = tower.levels[level].components[choice.components[level]]
    # p divides m, so the positions t, t + p, ... wrap onto one residue class mod p
    cells = comp.loop_cells(choice.loop)[(t - 1) % p::p]
    mu = _from_weights(dict.fromkeys(map(representative, cells), 1), m // p)
    push = pushforward_iter(tower.table, mu, p)
    if push != mu:
        raise ParameterError(
            "measure is not exactly periodic at this level; the tower's loop "
            "lengths must be constant at and below the chosen level"
        )
    for j in range(1, p):
        if pushforward_iter(tower.table, mu, j) == mu:
            raise ParameterError(f"period is not exact: invariant already under {j} steps")
    return mu


def enumerate_admissible_choices(tower: MapTower, period: int) -> list[AdmissibleChoice]:
    """All nested component chains through every certified level, each with
    every offset in 1..period, on the right loop; distinct choices yield
    pairwise distinct periodic measures.  A period below 1 has no choices,
    so it raises ParameterError instead of listing none."""
    if period < 1:
        raise ParameterError(f"period = {period} is below 1")
    chains: list[tuple[int, ...]] = [(i,) for i in range(len(tower.levels[0].components))]
    for level in tower.levels[1:]:
        chains = [
            chain + (ci,)
            for chain in chains
            for ci, comp in enumerate(level.components)
            if comp.parent == chain[-1]
        ]
    return [
        AdmissibleChoice(components=chain, offset=t, period=period)
        for chain, t in product(chains, range(1, period + 1))
    ]


def consistency_check(
    tower: MapTower, choice: AdmissibleChoice, level_lo: int, level_hi: int
) -> Certificate:
    """The finer level's measure must aggregate exactly to the coarser one.

    Compares the coarse-partition cell masses of the fine truncation with
    those of the coarse truncation; exact equality is required.
    """
    if not 0 <= level_lo < level_hi < len(tower.levels):
        raise ParameterError("need two certified levels with level_lo < level_hi")
    coarse = tower.levels[level_lo].partition()
    mu_lo = periodic_measure(tower, choice, level_lo)
    mu_hi = periodic_measure(tower, choice, level_hi)
    masses_lo = cell_masses(mu_lo, coarse)
    masses_hi = cell_masses(mu_hi, coarse)
    diffs = {
        c: (masses_lo[c], masses_hi[c])
        for c in coarse.cells
        if masses_lo[c] != masses_hi[c]
    }
    return Certificate(
        operation="consistency_check",
        passed=not diffs,
        verdict="refinement_consistent" if not diffs else "refinement_inconsistent",
        parameters={
            "levels": [level_lo, level_hi],
            "period": choice.period,
            "offset": choice.offset,
        },
        witnesses={"mismatched_cells": diffs},
        details={"coarse_masses": {c: masses_lo[c] for c in coarse.cells}},
    )


def loop_support_check(tower: MapTower, mu: AtomicMeasure) -> Certificate:
    """Necessary condition for chain recurrence of the induced map: zero
    mass on every transient cell of level 0 (each component's ``TRANSIENT``
    role: balloon paths, dumbbell bars).

    On dumbbell towers the preimages h^{-n} of the first bar cells must also
    carry zero mass, for n up to the longest bar plus the loop length
    (beyond it those preimages recede into the left loops).
    """
    level_obj = tower.levels[0]
    violations = []
    for comp in level_obj.components:
        for cell in comp.transient:
            mass = mu.mass_of_cylinders([cell])
            if mass != 0:
                violations.append({"cell": cell, "kind": comp.TRANSIENT, "mass": mass})
    if tower.kind == "dumbbell":
        bar_max = max(len(c.transient) for c in level_obj.components)
        preimage_horizon = bar_max + level_obj.loop_length
        for comp in level_obj.components:
            first = comp.transient[0]
            region = (first,)
            for n in range(1, preimage_horizon + 1):
                pieces = []
                for cyl in region:
                    pieces.extend(tower.table.preimage_cylinders(cyl))
                region = tuple(pieces)
                mass = mu.mass_of_cylinders(region)
                if mass != 0:
                    violations.append(
                        {"cell": first, "kind": f"preimage_{n}", "mass": mass}
                    )
                    break
    return Certificate(
        operation="loop_support_check",
        passed=not violations,
        verdict="loop_supported" if not violations else "transient_mass_found",
        parameters={"level": 0},
        witnesses={"violations": violations},
        details={},
    )


def recurrence_certificate(
    tower: MapTower, mu: AtomicMeasure, eps: Fraction
) -> Certificate:
    """d(f~^{m}(mu), mu) < eps at the first level of mesh below eps, m the
    level's loop length; requires a loop-supported measure."""
    eps = _exact("eps", eps)
    support = loop_support_check(tower, mu)
    if not support.passed:
        raise ParameterError("measure charges transient cells; recurrence check declined")
    level = tower.level_with_mesh_below(eps)
    m = tower.levels[level].loop_length
    dist = prohorov_distance(pushforward_iter(tower.table, mu, m), mu)
    return Certificate(
        operation="recurrence_certificate",
        passed=dist < eps,
        verdict="returns_within_eps" if dist < eps else "return_too_far",
        parameters={"eps": eps, "level": level, "power": m},
        witnesses={"distance": dist},
        details={},
    )


def transient_perturbation(
    tower: MapTower, mu: AtomicMeasure, lam: Fraction
) -> tuple[AtomicMeasure, Certificate]:
    """Mix lambda of a transient unit mass into mu.

    The perturbed measure is within lambda of mu (verified exactly) and
    fails the loop-support check with at least lambda of transient mass:
    arbitrarily small perturbations leave the chain-recurrent candidates.
    """
    lam = _exact("lambda", lam)
    if not 0 < lam < 1:
        raise ParameterError(f"lambda = {lam} must lie strictly between 0 and 1")
    comp = tower.levels[0].components[0]
    transient = comp.transient
    if tower.kind == "balloon":
        if len(transient) < 2:
            raise ParameterError(
                "perturbation needs a path of length at least 2 so the mass "
                "lands in a transient cell"
            )
        # image of the initial vertex's representative: sits in the second path cell
        z = tower.table.apply(representative(comp.initial_vertex))
        target_cell = transient[1]
    else:
        z = representative(transient[0])
        target_cell = transient[0]
    a, b = lam.numerator, lam.denominator
    mu_lam = _combine([(b - a, mu), (a, dirac(z))], b)
    dist = prohorov_distance(mu_lam, mu)
    support = loop_support_check(tower, mu_lam)
    bar_mass = mu_lam.mass_of_cylinders([target_cell])
    passed = dist <= lam and not support.passed and bar_mass >= lam
    cert = Certificate(
        operation="transient_perturbation",
        passed=passed,
        verdict="leaves_recurrent_set" if passed else "perturbation_inconclusive",
        parameters={"lambda": lam},
        witnesses={
            "distance": dist,
            "transient_cell": target_cell,
            "transient_mass": bar_mass,
        },
        details={"support_verdict": support.verdict},
    )
    return mu_lam, cert


def _loop_classes(loop_cells: tuple[str, ...], p: int) -> list[tuple[int, ...]]:
    m = len(loop_cells)
    g = gcd(p, m)
    return [tuple((r + t * p) % m for t in range(m // g)) for r in range(g)]


def approx_by_periodic(
    tower: MapTower, mu: AtomicMeasure, eps: Fraction
) -> tuple[AtomicMeasure, Certificate]:
    """Build an exactly invariant measure within eps of a recurrent one.

    Finds a return time p with d(f~^p(mu), mu) below the level modulus
    (the least one, read off the certified profile of mu's orbit against
    mu), splits every loop into classes closed under p steps, and replaces
    mu on each class by its average.  The result is exactly invariant under
    p steps of the induced map and provably within eps of mu.
    """
    eps = _exact("eps", eps)
    support = loop_support_check(tower, mu)
    if not support.passed:
        raise ParameterError("measure charges transient cells; approximation declined")
    level = tower.level_with_mesh_below(eps)
    level_obj = tower.levels[level]
    partition = level_obj.partition()
    m = level_obj.loop_length
    delta = min(partition.min_gap(), partition.mesh() / (2 * m * len(partition)))
    f = tower.table

    # 1 .. preperiod + period holds every value the profile takes at n >= 1
    prof = orbit_distance_to_target(f, mu, mu)
    p = next(
        (p for p in range(1, prof.preperiod + prof.period + 1) if prof.value_at(p) < delta),
        None,
    )
    if p is None:
        raise ResourceBudgetError("no return time within the orbit budget")
    return_dist = prof.value_at(p)

    masses = cell_masses(mu, partition)
    pieces: list[tuple[int, AtomicMeasure]] = []
    classes_out = []
    for ci, comp in enumerate(level_obj.components):
        for which in comp.LOOPS:
            cells = comp.loop_cells(which)
            classes = _loop_classes(cells, p)
            k = len(classes[0])
            sums = []
            for cls in classes:
                cls_cells = tuple(cells[i] for i in cls)
                total = sum((masses[c] for c in cls_cells), Fraction(0))
                sums.append(total)
                if total:
                    uniform = _from_weights(dict.fromkeys(map(representative, cls_cells), 1), k)
                    pieces.append((int(total * mu.denom), uniform))
            classes_out.append(
                {"component": ci, "loop": which, "class_size": k, "class_sums": sums}
            )
    mu_prime = _combine(pieces, mu.denom)
    if pushforward_iter(f, mu_prime, p) != mu_prime:
        raise ParameterError("constructed measure is not exactly invariant")
    dist = prohorov_distance(mu_prime, mu)
    mesh = partition.mesh()
    bound = mesh / len(partition)
    masses_prime = cell_masses(mu_prime, partition)
    cellwise_ok = all(
        abs(masses_prime[c] - masses[c]) <= bound for c in partition.cells
    )
    passed = dist < eps and cellwise_ok
    cert = Certificate(
        operation="approx_by_periodic",
        passed=passed,
        verdict="approximated" if passed else "approximation_failed",
        parameters={"eps": eps, "level": level, "return_time": p, "modulus": delta},
        witnesses={"distance": dist, "return_distance": return_dist},
        details={
            "cellwise_bound": bound,
            "cellwise_ok": cellwise_ok,
            "classes": classes_out,
        },
    )
    return mu_prime, cert
