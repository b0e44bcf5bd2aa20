"""Certificates for chain behaviour, equicontinuity, entropy and shadowing.

Every check here returns a :class:`~cantordyn.certs.Certificate` whose
payload carries exact rationals only.  Chains are verified step by step
with the exact Prohorov solver, never assumed from the construction that
produced them.  The chains of one (map, mu, nu, delta, backend) are
prefixes of one another, so ``chain_connect_map`` keeps one record of that
chain per process, registered in ``tables``: a call builds and verifies
only the steps past the verified prefix.  The record keeps verified steps
only, so a failing step is verified again, and raises again, on every call
that reaches it.  It also keeps nu's orbit, pushed from nu alone, apart
from the interpolants: each chain's endpoint is checked against that orbit
instead of pushing nu up to the chain's length again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .cantor import cell_distance, representative
from .certs import Certificate
from .errors import CertificationError, ParameterError
from .maps import PrefixTableMap, eventual_image, graph_of
from .measures import (
    AtomicMeasure,
    _combine,
    _exact,
    dirac,
    prohorov_distance,
    pushforward,
    pushforward_iter,
)
from .orbits import distance_profile, orbit_distance_to_target
from .tables import table
from .towers import MapTower

_CHAIN_RECORD_SIZE = 4  # callers ask for the lengths of one chain back to back


# ---------------------------------------------------------------------------
# delta-chains between measures


@dataclass(frozen=True)
class Chain:
    """A verified delta-chain: d(f~(points[n]), points[n+1]) < delta for all n."""

    points: tuple[AtomicMeasure, ...]
    delta: Fraction
    step_distances: tuple[Fraction, ...]

    @property
    def length(self) -> int:
        return len(self.points) - 1


def verify_chain(f: PrefixTableMap, points, delta: Fraction, backend: str = "auto") -> Chain:
    """Independent step verification with the exact solver; raises on failure.

    A chain of fewer than two points has no step to verify, so it raises
    ParameterError instead of passing vacuously."""
    delta = _exact("delta", delta)
    pts = tuple(points)
    if len(pts) < 2:
        raise ParameterError(f"a chain needs at least two points, got {len(pts)}")
    p, q = delta.numerator, delta.denominator
    dists = []
    for a, b in zip(pts, pts[1:]):
        d = prohorov_distance(pushforward(f, a), b, backend)
        if not d.numerator * q < p * d.denominator:  # d < delta, in integers
            raise CertificationError(f"chain step distance {d} is not below {delta}")
        dists.append(d)
    return Chain(pts, delta, tuple(dists))


def default_gamma(delta: Fraction) -> Fraction:
    """Canonical mixing step below delta = a/b: the largest fraction under
    delta with denominator at most 2b.

    That is delta's left Farey neighbour of order 2b, p/q with a*q - b*p = 1:
    q is the largest number up to 2b congruent to a^-1 mod b.
    """
    delta = _exact("delta", delta)
    a, b = delta.numerator, delta.denominator
    if not 0 < a < b:
        raise ParameterError(f"delta = {delta} must lie strictly between 0 and 1")
    q = pow(a, -1, b)
    q += (2 * b - q) // b * b
    p = (a * q - 1) // b
    assert p > 0 and a * q - b * p == 1  # 0 < p/q < delta, no closer fraction
    return Fraction(p, q)


def _step_count(gamma: Fraction) -> int:
    """The least k0 with (k0 - 1) * gamma < 1 <= k0 * gamma."""
    p, q = gamma.numerator, gamma.denominator
    k0 = -(-q // p)  # ceil(1/gamma)
    assert (k0 - 1) * p < q <= k0 * p
    return k0


def chain_step_count(delta: Fraction) -> int:
    """The least k0 with (k0 - 1) * gamma < 1 <= k0 * gamma, for the mixing
    step gamma = ``default_gamma(delta)``: the least length of
    ``chain_connect_map``.  It depends only on delta."""
    return _step_count(default_gamma(delta))


@dataclass
class _ChainRecord:
    """The chain of one (map, mu, nu, delta, backend) as far as any call has
    asked for it: its points, the distances of its verified prefix, and
    nu's orbit f~^0(nu) ... f~^j(nu) as far as the points go, against which
    each chain's endpoint is checked."""

    k0: int
    points: list[AtomicMeasure]
    orbit: list[AtomicMeasure]
    distances: list[Fraction] = field(default_factory=list)


@table("chains", _CHAIN_RECORD_SIZE)
def _chain_record(f, mu, nu, delta: Fraction, backend: str) -> _ChainRecord:
    """A new record holding the chain of the least length k0, unverified.

    Its interpolants are (1 - j*gamma) f~^j(mu) + j*gamma f~^j(nu) for
    j < k0, with gamma = ``default_gamma(delta)`` = p/q: the integer weights
    q - j*p and j*p over q are both positive, and the one combine core of
    ``measures`` merges them.  Point k0 is f~^k0(nu).  The pushes of nu
    that build them are nu's orbit up to k0."""
    gamma = default_gamma(delta)
    p, q = gamma.numerator, gamma.denominator
    k0 = _step_count(gamma)
    points, orbit = [mu], [nu]
    mu_j = mu
    for j in range(1, k0):
        mu_j = pushforward(f, mu_j)
        orbit.append(pushforward(f, orbit[-1]))
        points.append(_combine([(q - j * p, mu_j), (j * p, orbit[-1])], q))
    orbit.append(pushforward(f, orbit[-1]))
    points.append(orbit[-1])
    return _ChainRecord(k0, points, orbit)


def chain_connect_map(
    f: PrefixTableMap,
    mu: AtomicMeasure,
    nu: AtomicMeasure,
    delta: Fraction,
    k: int,
    backend: str = "auto",
) -> Chain:
    """A verified delta-chain of length k from mu that ends exactly at the
    k-th pushforward of nu.

    Interpolates (1 - j*gamma) f~^j(mu) + j*gamma f~^j(nu) until the mixing
    weight reaches 1 at step k0 = ``chain_step_count(delta)``, jumps to the
    pure nu orbit, then follows it exactly.  The chain of length k is the
    first k steps of every longer one, so the call reads it off the
    per-process record of (f, mu, nu, delta, backend) and verifies, through
    ``verify_chain``, only the steps past the record's verified prefix.  A
    failing step is never recorded: every chain that contains it verifies
    it again and raises its error, so each result and each error is what a
    call on empty tables gives.  The endpoint is checked against nu's
    orbit in the record, which is pushed from nu alone.
    """
    delta = _exact("delta", delta)  # before the lookup: 0.5 == Fraction(1, 2)
    rec = _chain_record(f, mu, nu, delta, backend)
    if k < rec.k0:
        raise ParameterError(f"chain length {k} is below the minimum {rec.k0}")
    while len(rec.points) <= k:
        rec.points.append(pushforward(f, rec.points[-1]))
        rec.orbit.append(pushforward(f, rec.orbit[-1]))
    for i in range(len(rec.distances), k):
        rec.distances.extend(verify_chain(f, rec.points[i:i + 2], delta, backend).step_distances)
    chain = Chain(tuple(rec.points[:k + 1]), delta, tuple(rec.distances[:k]))
    if chain.points[-1] != rec.orbit[k]:
        raise CertificationError("chain endpoint is not the exact image of nu")
    return chain


def chain_connect_homeo(
    h: PrefixTableMap,
    mu: AtomicMeasure,
    nu: AtomicMeasure,
    delta: Fraction,
    k: int,
    backend: str = "auto",
) -> Chain:
    """A verified delta-chain from mu ending exactly at nu, for invertible h."""
    h_inv = h.invert()
    nu_pre = pushforward_iter(h_inv, nu, k)
    chain = chain_connect_map(h, mu, nu_pre, delta, k, backend)
    if chain.points[-1] != nu:
        raise CertificationError("homeomorphism chain endpoint is not exactly nu")
    return chain


# ---------------------------------------------------------------------------
# equicontinuity of the induced map (balloon towers)


def equicontinuity_modulus(partition) -> Fraction:
    """min{gap, mesh / (2 card)} for a partition: the uniform modulus that
    controls every forward distance of the induced map on a balloon tower."""
    mesh = partition.mesh()
    return min(partition.min_gap(), mesh / (2 * len(partition)))


def equicontinuity_certificate(tower: MapTower, eps: Fraction) -> Certificate:
    """Certify sup_n d(f~^n mu, f~^n nu) <= mesh < eps for every pair of
    measures with d(mu, nu) < delta, from the cell digraph alone.

    Take the first certified level L whose mesh is below eps and delta =
    ``equicontinuity_modulus`` of its partition, required to be at most
    min(gap, mesh).  If d(mu, nu) < delta, a coupling of mu and nu puts all
    but less than delta of the mass on pairs closer than the gap, that is,
    inside single cells (Strassen).  When every cell's image meets exactly
    one cell, f keeps each such pair inside one cell at every step, so
    d(f~^n mu, f~^n nu) <= max(mesh, delta) = mesh for every n.  Level L's
    digraph is recomputed with ``graph_of``, not assumed; each cell whose
    image splits is named, and the verdict is then ``modulus_violated``.
    """
    if tower.kind != "balloon":
        raise ParameterError("equicontinuity certificate applies to balloon towers")
    eps = _exact("eps", eps)
    level = tower.level_with_mesh_below(eps)
    partition = tower.levels[level].partition()
    delta, mesh = equicontinuity_modulus(partition), partition.mesh()
    out = graph_of(tower.table, partition).out_map()
    split = {a: sorted(out[a]) for a in partition.cells if len(out[a]) != 1}
    passed = not split and delta <= min(partition.min_gap(), mesh)
    witnesses = {"delta": delta, "level": level, "cells": len(partition)}
    witnesses.update({"bound": mesh} if passed else {"split_cells": split})
    return Certificate(
        operation="equicontinuity_certificate",
        passed=passed,
        verdict="equicontinuous_at_modulus" if passed else "modulus_violated",
        parameters={"eps": eps},
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# entropy evidence via separated sets


EXACT_LIMIT = 25  # largest grid counted exactly by branch and bound


def _max_clique_size(adj: list[set[int]], n: int) -> int:
    best = 0

    def expand(candidates: set[int], size: int):
        nonlocal best
        if size + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        pivot = max(candidates, key=lambda v: len(adj[v] & candidates))
        for v in sorted(candidates - adj[pivot]):
            expand(candidates & adj[v], size + 1)
            candidates = candidates - {v}
            if size + len(candidates) <= best:
                return

    expand(set(range(n)), 0)
    return best


def _greedy_separated(adj: list[set[int]], n: int) -> int:
    chosen: list[int] = []
    for v in range(n):
        if all(v in adj[u] for u in chosen):
            chosen.append(v)
    return len(chosen)


@dataclass
class EntropyTable:
    """Counts N(n, eps) of maximum (n, eps)-separated subsets of a grid."""

    grid_size: int
    eps_list: tuple[Fraction, ...]
    horizons: tuple[int, ...]
    counts: dict[tuple[int, Fraction], int]
    exact: bool

    def is_monotone_in_n(self, eps: Fraction) -> bool:
        vals = [self.counts[(n, eps)] for n in self.horizons]
        return all(a <= b for a, b in zip(vals, vals[1:]))

    def normalized_log_nonincreasing(self, eps: Fraction) -> bool:
        """(1/n) log N(n) non-increasing, checked as N(n+1)^n <= N(n)^(n+1)."""
        vals = [(n, self.counts[(n, eps)]) for n in self.horizons]
        return all(
            nb ** na <= nav ** nb_
            for (na, nav), (nb_, nb) in zip(vals, vals[1:])
        )

    def slope_zero_at_horizon(self, eps: Fraction) -> bool:
        if len(self.horizons) < 2:
            return False
        n1, n2 = self.horizons[-2], self.horizons[-1]
        return self.counts[(n1, eps)] == self.counts[(n2, eps)]


def entropy_estimate(
    f: PrefixTableMap, grid: list[AtomicMeasure], eps_list, n_max: int
) -> EntropyTable:
    """Maximum sizes of (n, eps)-separated subsets of the grid, for n up to
    n_max; exact (branch and bound) for grids of at most ``EXACT_LIMIT``
    measures, a greedy lower bound beyond that.  Each pair's distances come
    from one certified ``distance_profile``; ``n_max`` must be at least 1.
    Every pair is separated at an eps that is not positive, so such an eps
    raises ParameterError instead of counting the whole grid; an empty grid
    or eps_list has nothing to count and raises it too."""
    if n_max < 1:
        raise ParameterError(f"n_max = {n_max} is below 1")
    if not grid:
        raise ParameterError("grid is empty")
    eps_list = tuple(_exact("eps", e) for e in eps_list)
    if not eps_list:
        raise ParameterError("eps_list is empty")
    for eps in eps_list:
        if eps <= 0:
            raise ParameterError(f"eps = {eps} is not positive")
    ascending = sorted(set(eps_list))
    # joins[r][k]: the pairs whose distance first reaches ascending[r] at
    # step k, so that the running maximum over steps < n is >= that eps from
    # horizon n = k + 1 on; values[k] for k past the profile's window repeat
    # earlier ones, so a pair that has not reached eps by then never does.
    # The graphs are kept by position r, so the per-pair loop hashes no eps;
    # it tests a distance p/q against eps = a/b as a*q <= p*b, in integers,
    # and stops reading a profile once the pair has reached every eps.
    joins = [[[] for _ in range(n_max)] for _ in ascending]
    bounds = [(eps.numerator, eps.denominator) for eps in ascending]
    last = len(bounds)
    for i, j in combinations(range(len(grid)), 2):
        prof = distance_profile(f, grid[i], grid[j])
        reached = 0
        for k, d in enumerate(prof.values[:n_max]):
            p, q = d.numerator, d.denominator
            while reached < last and bounds[reached][0] * q <= p * bounds[reached][1]:
                joins[reached][k].append((i, j))
                reached += 1
            if reached == last:
                break
    exact = len(grid) <= EXACT_LIMIT
    count = _max_clique_size if exact else _greedy_separated
    adj = [[set() for _ in grid] for _ in ascending]
    counts: dict[tuple[int, Fraction], int] = {}
    for n in range(1, n_max + 1):
        for eps in eps_list:
            r = ascending.index(eps)
            for i, j in joins[r][n - 1]:
                adj[r][i].add(j)
                adj[r][j].add(i)
            counts[(n, eps)] = count(adj[r], len(grid))
    return EntropyTable(
        grid_size=len(grid),
        eps_list=eps_list,
        horizons=tuple(range(1, n_max + 1)),
        counts=counts,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# chain continuity and transitivity


def chain_continuity_test(
    f: PrefixTableMap,
    depth: int,
    eps: Fraction = Fraction(1, 4),
    delta: Fraction = Fraction(1, 2),
) -> Certificate:
    """Decide partition-level chain continuity of the induced map.

    Computes the surviving cell sets at depths 1..depth.  If every level
    survives as a single cell and the cells nest, the map funnels everything
    toward one point and the verdict is chain continuous everywhere.
    Otherwise two verified delta-chains of equal length are produced from
    one starting measure whose endpoints are at least 2*eps apart, refuting
    chain continuity at that point.  A depth below 1 or an eps that is not
    positive would make either verdict hold vacuously, so both raise
    ParameterError.
    """
    eps, delta = _exact("eps", eps), _exact("delta", delta)
    if depth < 1:
        raise ParameterError(f"depth = {depth} is below 1")
    if eps <= 0:
        raise ParameterError(f"eps = {eps} is not positive")
    survivors = {d: sorted(eventual_image(f, d)) for d in range(1, depth + 1)}
    singleton = all(len(s) == 1 for s in survivors.values())
    nested = all(
        survivors[d + 1][0].startswith(survivors[d][0]) for d in range(1, depth)
    ) if singleton else False
    if singleton and nested:
        return Certificate(
            operation="chain_continuity_test",
            passed=True,
            verdict="chain_continuous_everywhere",
            parameters={"depth": depth},
            witnesses={"nested_cells": [survivors[d][0] for d in sorted(survivors)]},
            details={"survivor_counts": {d: len(s) for d, s in survivors.items()}},
        )
    cells = survivors[depth]
    far_pair = None
    for a, b in combinations(cells, 2):
        if cell_distance(a, b) >= 2 * eps:
            far_pair = (a, b)
            break
    witnesses: dict = {"survivors_at_depth": cells}
    details: dict = {"survivor_counts": {d: len(s) for d, s in survivors.items()}}
    if far_pair is not None:
        a, b = far_pair
        k = chain_step_count(delta)
        dirac_a, dirac_b = dirac(representative(a)), dirac(representative(b))
        start = _combine([(1, dirac_a), (1, dirac_b)], 2)
        chain_a = chain_connect_map(f, start, dirac_a, delta, k)
        chain_b = chain_connect_map(f, start, dirac_b, delta, k)
        end_gap = prohorov_distance(chain_a.points[-1], chain_b.points[-1])
        if not end_gap >= 2 * eps:
            raise CertificationError(
                f"divergence witness endpoints are only {end_gap} apart"
            )
        witnesses.update(
            {
                "start": start,
                "delta": delta,
                "chain_length": k,
                "endpoint_gap": end_gap,
                "endpoint_a": chain_a.points[-1],
                "endpoint_b": chain_b.points[-1],
            }
        )
        details["step_distances_a"] = chain_a.step_distances
        details["step_distances_b"] = chain_b.step_distances
    return Certificate(
        operation="chain_continuity_test",
        passed=True,
        verdict="not_chain_continuous_anywhere",
        parameters={"depth": depth, "eps": eps, "delta": delta},
        witnesses=witnesses,
        details=details,
    )


def transitivity_check(f: PrefixTableMap, partition_or_depth) -> Certificate:
    """Cell-level topological transitivity via digraph reachability.

    Verdict is transitive when every ordered pair of distinct cells is
    connected by a directed path; otherwise an unreachable pair is returned.
    """
    graph = graph_of(f, partition_or_depth)
    cells = graph.partition.cells
    out = graph.out_map()
    witness = None
    for a in cells:
        reach: set[str] = set()
        frontier = set(out[a])
        while frontier:
            reach |= frontier
            frontier = {c for b in frontier for c in out[b]} - reach
        missing = [b for b in cells if b != a and b not in reach]
        if missing:
            witness = (a, missing[0])
            break
    return Certificate(
        operation="transitivity_check",
        passed=True,
        verdict="transitive" if witness is None else "not_transitive",
        parameters={"cells": len(cells)},
        witnesses={} if witness is None else {"unreachable_pair": list(witness)},
        details={},
    )


# ---------------------------------------------------------------------------
# weak-shadowing refutation for dumbbell homeomorphisms


def weak_shadowing_refutation(
    tower: MapTower,
    eps: Fraction,
    delta: Fraction,
    grid: list[AtomicMeasure],
) -> Certificate:
    """Refute weak eps-shadowing of a cross-component pseudotrajectory.

    Requires a dumbbell tower that is not transitive at the certified cell
    level (at least two components).  Builds a delta-pseudotrajectory whose
    anchors are unit masses on loop representatives in two different
    dumbbells, then shows that no grid measure's full orbit (both time
    directions, exact eventual periodicity) comes within eps of both
    anchors.  The core chain, the anchor gap and the orbit minima all run
    the closed form.  No minimum lies below an eps that is not positive, and
    an empty grid has no minimum, so such an eps or grid raises
    ParameterError instead of refuting vacuously.
    """
    eps, delta = _exact("eps", eps), _exact("delta", delta)
    if eps <= 0:
        raise ParameterError(f"eps = {eps} is not positive")
    if not grid:
        raise ParameterError("grid is empty")
    if tower.kind != "dumbbell":
        raise ParameterError("weak-shadowing refutation needs a dumbbell tower")
    comps = tower.levels[0].components
    if len(comps) < 2:
        raise ParameterError("need at least two dumbbell components")
    trans = transitivity_check(tower.table, tower.levels[0].partition())
    if trans.verdict != "not_transitive":
        raise ParameterError("map is transitive at the cell level; refutation declined")
    h = tower.table
    h_inv = h.invert()
    mu_star = dirac(representative(comps[0].initial_vertex))
    nu_star = dirac(representative(comps[1].initial_vertex))
    k0 = chain_step_count(delta)
    core = chain_connect_homeo(h, mu_star, nu_star, delta, k0)
    anchor_gap = prohorov_distance(mu_star, nu_star)
    rows = []
    refuted_all = True
    for idx, eta in enumerate(grid):
        mins = {}
        for name, anchor in (("first", mu_star), ("second", nu_star)):
            forward = orbit_distance_to_target(h, eta, anchor)
            backward = orbit_distance_to_target(h_inv, eta, anchor)
            mins[name] = min(forward.infimum(), backward.infimum())
        shadows_both = mins["first"] < eps and mins["second"] < eps
        refuted_all &= not shadows_both
        rows.append(
            {"measure": idx, "min_to_first": mins["first"], "min_to_second": mins["second"]}
        )
    return Certificate(
        operation="weak_shadowing_refutation",
        passed=refuted_all,
        verdict="refuted_on_grid" if refuted_all else "shadowed_by_grid_measure",
        parameters={
            "eps": eps,
            "delta": delta,
            "grid_size": len(grid),
            "core_length": core.length,
        },
        witnesses={
            "anchor_gap": anchor_gap,
            "core_steps": core.step_distances,
        },
        details={"grid_minima": rows},
    )
