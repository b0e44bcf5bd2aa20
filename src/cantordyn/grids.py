"""Measure families over a partition: simplex grids, random sampling, and a
vectorized all-pairs scan of exact distance profiles.

Grid measures place their mass on cell representatives (prefix plus zero
tail).  For an all-pairs scan the atoms of every grid measure ride on the
same tracked point family -- the orbits of the cell representatives -- so a
single certified trajectory serves every pair.  That family is certified by
the one eventual-periodicity engine of ``orbits``, run on the unit masses
of the representatives, and keeps the sorted form of each step of the
certified window, built by the engine's own routine, ``cantor._sorted_form``:
the sort order of the points and the separations of consecutive ones.  Each
pairwise Prohorov value then reduces, by the ultrametric closed form of
``measures``, to sums of positive class-mass differences over the common
support, with the solver's thresholds (the distinct gaps) and its classes
(the runs of gaps); masses are small integers over one denominator, so the
whole scan runs in numpy int arithmetic, at any number of tracked points.
Every measure's class masses sum to the resolution res, so that sum is
g = sum_B max(mu(B), nu(B)) - res, and the scan sums class maxima in the
narrowest unsigned type that holds 2 res (uint8 up to res 127, uint16 up
to 32,767).  Each interval is clamped by the solver's own rule,
``measures._interval_value``, once per possible integer g, the values rank
into a short list of exact rationals, and a step stops at the first
threshold where every pair is feasible, because, as in
``measures._clamped_min``, a pair's first feasible interval attains its
least value.  No floats are involved anywhere.  A step works on row blocks
of a fixed number of entries over the upper triangle, stopping each block
on its own and mirroring it below the diagonal, so its memory is the uint16
result plus fixed-size blocks, whatever the number of measures.

numpy is imported inside the scanner's methods and ``li_yorke_scan`` only,
so building grids, maps and measures (``cantordyn generate``) never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .cantor import CylinderPartition, _sorted_form, representative
from .errors import ParameterError
from .maps import PrefixTableMap
from .measures import AtomicMeasure, dirac
from .measures import _from_weights, _interval_value, _runs, _thresholds
from .orbits import DEFAULT_BUDGET, PairClass, _evolve_distance_sequence, _term


def simplex_grid(partition: CylinderPartition, resolution: int) -> list[AtomicMeasure]:
    """All measures with masses in {0, 1/m, ..., 1} on the cell representatives.

    ``resolution`` is m; the grid has C(m + k - 1, k - 1) points for k cells,
    in ascending lexicographic order of their cell-count vectors.
    """
    if resolution < 1:
        raise ParameterError("resolution must be positive")
    reps = [representative(c) for c in partition.cells]
    # stars and bars: k - 1 bars among m + k - 1 slots, in ascending
    # lexicographic order, so the count vectors come out in that order too
    slots = resolution + len(reps) - 1
    edges = ((-1, *bars, slots) for bars in combinations(range(slots), len(reps) - 1))
    return [_cell_measure(reps, [b - a - 1 for a, b in zip(e, e[1:])], resolution)
            for e in edges]


def _cell_measure(reps, counts, resolution) -> AtomicMeasure:
    return _from_weights({r: k for r, k in zip(reps, counts) if k}, resolution)


def random_cell_measure(
    partition: CylinderPartition, rng, resolution: int = 16
) -> AtomicMeasure:
    """A random measure with denominator ``resolution`` on cell representatives."""
    if resolution < 1:
        raise ParameterError("resolution must be positive")
    counts = [0] * len(partition.cells)
    for _ in range(resolution):
        counts[rng.randrange(len(counts))] += 1
    return _cell_measure([representative(c) for c in partition.cells], counts, resolution)


def random_atomic_measure(rng, max_atoms: int = 8, max_depth: int = 4) -> AtomicMeasure:
    """A random measure on random points, masses with denominator 64."""
    if not 1 <= max_atoms <= min(64, 2**max_depth):  # distinct points, 1/64 each
        raise ParameterError(f"max_atoms must lie in [1, min(64, 2**max_depth)], got {max_atoms}")
    k = rng.randint(1, max_atoms)
    points = set()
    while len(points) < k:
        depth = rng.randint(0, max_depth)
        points.add("".join(rng.choice("01") for _ in range(depth)).rstrip("0"))
    counts = [1] * len(points)
    for _ in range(64 - len(points)):
        counts[rng.randrange(len(counts))] += 1
    return _from_weights(dict(zip(sorted(points), counts)), 64)


# ---------------------------------------------------------------------------
# shared trajectories of the cell representatives


@dataclass(frozen=True)
class TrajectoryFamily:
    """Orbits of a point family with a certified eventually periodic
    sorted form: per step, the point indices by ascending word and the
    separations of consecutive words (d = 1/n, 0 for the same point), and
    form(n + period) == form(n) for n >= preperiod."""

    points: tuple[str, ...]
    preperiod: int
    period: int
    forms: tuple

    def form_at(self, n: int):
        return _term(self.forms, self.preperiod, self.period, n)


def track_representatives(f: PrefixTableMap, partition: CylinderPartition) -> TrajectoryFamily:
    """Evolve all cell representatives jointly and certify the eventual
    periodicity of their sorted form.

    Runs the measure-orbit engine on the Dirac masses of the representatives:
    their masses never change, so the engine's state-cycle and padded-cycle
    certificates apply to the sorted form of the words themselves, and the
    family keeps the forms of the states of the certified window.
    """
    start = tuple(representative(c) for c in partition.cells)
    states, rho, tau, _, _ = _evolve_distance_sequence(
        f, tuple(dirac(w) for w in start), (), DEFAULT_BUDGET
    )
    forms = tuple(_sorted_form([mu.support[0] for mu in s]) for s in states)
    return TrajectoryFamily(start, rho, tau, forms)


# ---------------------------------------------------------------------------
# exact all-pairs scan over a common support

BLOCK_ENTRIES = 1 << 15  # matrix entries per row block of a scan step


class CommonSupportScanner:
    """Exact pairwise Prohorov values for measures on a tracked point family.

    At each time step and threshold c the tracked points split into the
    classes of the ultrametric relation "d <= c", so the one-sided maximum
    max_X [mu(X) - nu(X^delta)] is the sum over classes B of
    (mu(B) - nu(B))^+, evaluated for all pairs at once from one class-mass
    matrix in integer arithmetic, then clamped per interval exactly as the
    scalar solver does.  Distances are ranked into a short sorted list of
    exact rationals so that whole-grid minima and maxima stay in small
    integers: uint16 ranks, with the invalid rank one past the last, so a
    resolution whose values do not fit is declined.

    A time step runs on blocks of rows over the upper triangle and mirrors
    each one below the diagonal; each block stops at its own first
    threshold where all its entries are feasible, which keeps every value
    because a pair's first feasible interval attains its least value (see
    ``rank_matrix_at``).
    """

    def __init__(self, family: TrajectoryFamily, measures: list[AtomicMeasure], resolution: int):
        import numpy as np

        k = len(family.points)
        self.family = family
        self.resolution = resolution
        index = {p: i for i, p in enumerate(family.points)}
        self.mass = np.zeros((len(measures), k), dtype=np.int64)
        for r, mu in enumerate(measures):
            scale, rem = divmod(resolution, mu.denom)
            for p, w in zip(mu.support, mu.weights):
                if p not in index or rem:
                    raise ParameterError("measure does not live on the tracked grid")
                self.mass[r, index[p]] = w * scale
        # global value list: every distance a scan can output
        vals = {Fraction(g, resolution) for g in range(resolution + 1)}
        for _, gaps in family.forms:
            vals.update(Fraction(1, s) for s in _thresholds(gaps) if s)
        self.values: list[Fraction] = sorted(vals)
        self.rank = {v: r for r, v in enumerate(self.values)}
        self.invalid_rank = len(self.values)
        if self.invalid_rank > np.iinfo(np.uint16).max:
            raise ParameterError(
                f"resolution {resolution} is too fine for the scanner: its {len(self.values)}"
                " distances and the invalid rank do not fit in uint16 ranks")

    def rank_matrix_at(self, n: int) -> np.ndarray:
        """(R, R) uint16 matrix of ranked d(mu_i(n), mu_j(n)) for all pairs.

        Every row's class masses sum to the resolution res, so the positive
        excesses sum to g = sum_B max(mu(B), nu(B)) - res: one
        ``np.maximum.outer`` and one add per class, in
        ``np.min_scalar_type(2 * res)``, the narrowest unsigned type that
        holds the sum, and each threshold's rank table is read at res + g
        (its first res entries are never read).

        The matrix is symmetric because max is, so it is computed in blocks
        of rows [a, b) over columns a.. only, the upper triangle with its
        diagonal block, and each block is mirrored into rows b.. of its
        columns.  A block holds at most ``BLOCK_ENTRIES`` entries (one row if
        a row is longer), so apart from the uint16 result a step allocates
        only block-sized buffers and temporaries.  Each block stops at the
        first threshold where all of its entries are feasible: as in
        ``measures._clamped_min``, each pair's first feasible interval
        attains its least value, so the thresholds after it cannot lower
        any entry.  A threshold's rank table and class masses are built
        once, when the first block reaches it.
        """
        import numpy as np

        order, gaps = self.family.form_at(n)
        thresholds = _thresholds(gaps)
        intervals = list(zip(thresholds, thresholds[1:] + [None]))
        # one mass row per tracked point, in sorted order: each class is a run of rows
        rows = self.mass.T[list(order)]
        res, invalid = self.resolution, self.invalid_rank
        nmeas = self.mass.shape[0]
        dtype = np.min_scalar_type(2 * res)
        height = max(1, BLOCK_ENTRIES // max(nmeas, 1))
        best = np.empty((nmeas, nmeas), dtype=np.uint16)
        # (height, R) accumulators, kept flat so that each block's view is contiguous
        total = np.empty(min(height, nmeas) * nmeas, dtype=dtype)
        top = np.empty_like(total)
        tables = []  # (rank table, class masses) of each threshold reached so far
        for a in range(0, nmeas, height):
            b = min(a + height, nmeas)
            h, w = b - a, nmeas - a
            acc, term = total[:h * w].reshape(h, w), top[:h * w].reshape(h, w)
            block = best[a:b, a:]
            block.fill(invalid)
            for t, (s, s_next) in enumerate(intervals):
                if t == len(tables):
                    # rank of the clamped value at res + g per possible integer g
                    # in [0, res]; an infeasible interval (value None) gets the
                    # invalid rank
                    lut = np.full(2 * res + 1, invalid, dtype=np.uint16)
                    lut[res:] = [self.rank.get(_interval_value(g, res, s, s_next), invalid)
                                 for g in range(res + 1)]
                    # one contiguous row per class keeps ``maximum.outer`` vectorised
                    runs = _runs(gaps, s)  # nondecreasing: each class starts at its first row
                    starts = np.searchsorted(runs, range(runs[-1] + 1))
                    masses = np.add.reduceat(rows, starts, axis=0).astype(dtype, order="C")
                    tables.append((lut, masses))
                lut, masses = tables[t]
                np.maximum.outer(masses[0, a:b], masses[0, a:], out=acc)
                for col in masses[1:]:
                    np.maximum.outer(col[a:b], col[a:], out=term)
                    acc += term
                np.minimum(block, lut.take(acc), out=block)
                feasible = int(block.max()) < invalid
                if feasible:
                    break
            assert feasible
            best[b:, a:b] = block[:, h:].T
        return best


@dataclass
class LiYorkeScan:
    """Result of the exhaustive pair classification over a simplex grid."""

    grid: list[AtomicMeasure]
    family: TrajectoryFamily
    scanner: CommonSupportScanner
    counts: dict[str, int]
    liminf_ranks: np.ndarray
    limsup_ranks: np.ndarray

    @property
    def pair_count(self) -> int:
        n = len(self.grid)
        return n * (n - 1) // 2

    def liminf(self, i: int, j: int) -> Fraction:
        return self.scanner.values[int(self.liminf_ranks[i, j])]

    def limsup(self, i: int, j: int) -> Fraction:
        return self.scanner.values[int(self.limsup_ranks[i, j])]


def li_yorke_scan(f: PrefixTableMap, partition: CylinderPartition, resolution: int) -> LiYorkeScan:
    """Classify every unordered pair of simplex-grid measures exactly.

    liminf and limsup of each pair's distance sequence are taken over one
    certified period of the shared trajectory family, one
    ``rank_matrix_at`` step each: the scanner computes a step's upper
    triangle in row blocks, each stopped at its own first all-feasible
    threshold, and mirrors it.  Both rank matrices are symmetric, so each
    class is counted over the whole matrix, less its diagonal, and halved.
    """
    import numpy as np

    family = track_representatives(f, partition)
    grid = simplex_grid(partition, resolution)
    scanner = CommonSupportScanner(family, grid, resolution)
    rho, tau = family.preperiod, family.period
    liminf_ranks = scanner.rank_matrix_at(rho)
    limsup_ranks = liminf_ranks.copy()
    for n in range(rho + 1, rho + tau):
        ranks = scanner.rank_matrix_at(n)
        np.minimum(liminf_ranks, ranks, out=liminf_ranks)
        np.maximum(limsup_ranks, ranks, out=limsup_ranks)
    zero = scanner.rank[Fraction(0)]
    li, ls = liminf_ranks, limsup_ranks

    def pairs(hit: np.ndarray) -> int:
        # both rank matrices are symmetric: count each unordered pair once
        return (int(hit.sum()) - int(hit.diagonal().sum())) // 2

    counts = {
        PairClass.ASYMPTOTIC.value: pairs(ls == zero),
        PairClass.SEPARATED_BELOW.value: pairs(li > zero),
        PairClass.LI_YORKE_PAIR.value: pairs((li == zero) & (ls > zero)),
    }
    return LiYorkeScan(grid, family, scanner, counts, liminf_ranks, limsup_ranks)
