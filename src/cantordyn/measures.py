"""Finitely supported probability measures and the exact Prohorov metric.

A measure is a finite set of atoms on canonical words (zero tails
stripped) held in integer form: positive integer weights over one common
denominator, in lowest terms.  The library builds every measure it makes
from integer weights, with ``_from_weights`` (weights over a denominator)
and ``_combine`` (the one atom merge of weighted measures): Dirac masses,
grids, periodic measures, perturbations, chain interpolants and
pushforwards.  Fractions appear only at the boundary: the rational
constructors ``AtomicMeasure(atoms)``, ``atomic_measure`` and
``convex_combine`` check exact rational masses for measure files, user
code, tests and demos, and the ``atoms`` and ``masses`` views,
``cell_masses`` and ``mass_of_cylinders`` report them.  The Prohorov distance

    d(mu, nu) = inf{ delta > 0 : mu(X) <= nu(X^delta) + delta for all X }

is computed exactly.  Because the strict neighborhood operator X -> X^delta
is constant between consecutive atom-pair distances, the infimum restricted
to one such interval equals the clamped value of

    g(delta) = max over X subset supp(mu) of  mu(X) - nu(X^delta),

and the answer is the least clamped value over intervals.  The Cantor metric
is an ultrametric, so at every threshold "closer than delta" splits the atoms
into cylinder classes and g is the closed form sum over classes B of
(mu(B) - nu(B))^+; that closed form is the one production solver.  Brute
subset enumeration and a min-cut / max-flow computation of a partial
coupling are kept as independent oracles.  All three are exact over the
integers after clearing denominators, and they must always agree.

Every solver works on one sorted form of a pair (``_sorted_form``): the
distinct words of both supports merged in ascending order, each measure's
integer weight at every position, and the m - 1 separations n (d = 1/n) of
consecutive words, which hold the whole metric (``cantor._gaps``).  The
thresholds are the distinct gaps, the classes at a threshold are the runs
of consecutive words whose gaps are within it (``_runs``), g is an integer
numerator over the common denominator, and one rule, ``_interval_value``,
decides each interval in integers and builds the one Fraction of each
returned value.  The closed form sums the positive run excesses, the oracles
read their closeness masks off the same runs, and the grid scanner shares
``_thresholds``, ``_runs`` and that rule.  No solver builds a k x l matrix of
separations.

The solves and ``pushforward`` are memoised per process, in
least-recently-used memos: the same measures come back across pairs, and
the distance profiles of a grid meet the same pairs of states again and
again.
A distance depends only on the integer masses and the gaps between the
sorted words, so a solve is kept once, by the integer problem -- both
per-position weight tuples and denominators, the gaps and the backend
(2,048 entries) -- which answers every pair with the same masses in the
same order and the same gaps, an exact repeat as well as a pair with other
words, such as a padded orbit's later states or a relabelled pair.  Each
call merges the two supports, reading the gaps off the separation table of
``cantor``, and asks that one memo.  ``prohorov_distance`` returns the
value alone, and every library caller that reads only distances asks it;
the memo keeps the witness as positions, and only ``prohorov`` maps them
back onto its own words, into a ``ProhorovResult``.  A measure has one
canonical form and a map is equal to another exactly when their rules are,
so a hit returns what a fresh call would; the results are frozen, so a
shared one cannot be changed.  The two memos are registered in ``tables``,
which empties and counts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm

from .cantor import CylinderPartition, _gaps, canonical_point, point_in_cylinder
from .errors import BackendSelectionError, CertificationError, ParameterError
from .tables import table

ENUMERATION_LIMIT = 16
BACKENDS = ("enumeration", "flow", "auto", "both")  # the names ``prohorov`` takes
_MEASURE_MEMO_SIZE = 256  # the pushforward memo, keyed on (map, measure)
_PROBLEM_MEMO_SIZE = 2048  # the integer problems of a grid's profiles recur within this many


def _exact(name: str, value) -> Fraction:
    """``value`` as a Fraction; a float is rejected, never converted.  The
    one float check of every entry point that takes a rational."""
    if isinstance(value, float):
        raise ParameterError(f"{name} {value!r} is a float, not an exact rational")
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True, init=False, repr=False)
class AtomicMeasure:
    """A probability measure with finitely many rational point masses.

    Stored in integer form: the atom at ``support[i]`` has mass
    ``weights[i] / denom``.  ``support`` is sorted and holds canonical,
    distinct points; the weights are positive, sum to ``denom`` and share no
    common factor, so every measure has exactly one form and equality and
    hashing compare words and integers.  The hash is computed once, with the
    form, because the memos hash the same measures again and again.

    ``AtomicMeasure(atoms)`` takes (point, mass) pairs with exact rational
    masses, canonicalizes the points, merges duplicates, drops zero masses
    and rejects floats, negative masses and totals other than one.  The
    ``atoms`` and ``masses`` views give the masses back as Fractions.
    """

    support: tuple[str, ...]
    weights: tuple[int, ...]
    denom: int

    def __init__(self, atoms):
        merged: dict[str, Fraction] = {}
        for point, mass in atoms:
            mass = _exact("atom mass", mass)
            if mass < 0:
                raise ParameterError("negative atom mass")
            if mass == 0:
                continue
            key = canonical_point(point)
            merged[key] = merged.get(key, Fraction(0)) + mass
        denom = lcm(*[m.denominator for m in merged.values()])
        weights = {p: m.numerator * (denom // m.denominator) for p, m in merged.items()}
        _set_form(self, weights, denom)

    @property
    def atoms(self) -> tuple[tuple[str, Fraction], ...]:
        return tuple((p, Fraction(w, self.denom)) for p, w in zip(self.support, self.weights))

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(w, self.denom) for w in self.weights)

    def mass_of_cylinders(self, prefixes) -> Fraction:
        """Mass of a union of cylinders."""
        total = sum(
            w for p, w in zip(self.support, self.weights)
            if any(point_in_cylinder(p, c) for c in prefixes)
        )
        return Fraction(total, self.denom)

    def __len__(self) -> int:
        return len(self.support)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: a string hash differs between processes
        return _from_weights, (dict(zip(self.support, self.weights)), self.denom)

    def __repr__(self) -> str:
        return f"AtomicMeasure(atoms={self.atoms!r})"


def _set_form(mu: AtomicMeasure, weights: dict[str, int], denom: int) -> None:
    """Store positive integer weights over ``denom`` in reduced sorted form.
    The fields are set one by one, not through ``mu.__dict__``: on CPython
    3.11 reading that gives each measure its own dict, about 136 bytes more
    per measure."""
    support = tuple(sorted(weights))
    reduced = tuple([weights[p] for p in support])
    if sum(reduced) != denom:
        raise ParameterError("atom masses must sum to exactly 1")
    g = gcd(*reduced)
    if g > 1:
        reduced, denom = tuple([w // g for w in reduced]), denom // g
    object.__setattr__(mu, "support", support)
    object.__setattr__(mu, "weights", reduced)
    object.__setattr__(mu, "denom", denom)
    object.__setattr__(mu, "_hash", hash((support, reduced, denom)))


def _from_weights(weights: dict[str, int], denom: int) -> AtomicMeasure:
    """The measure with canonical points and positive integer weights over
    ``denom``, built without the rational checks of the constructor: the
    caller passes canonical words and positive weights, and ``_set_form``
    still checks that the weights sum to ``denom``."""
    mu = object.__new__(AtomicMeasure)
    _set_form(mu, weights, denom)
    return mu


def atomic_measure(pairs) -> AtomicMeasure:
    """Build a measure from an iterable or dict of (point, mass) pairs with
    exact rational masses, checked by the constructor: the boundary for
    measure files and user code, since the library builds its own measures
    from integer weights."""
    if isinstance(pairs, dict):
        pairs = pairs.items()
    return AtomicMeasure(tuple(pairs))


def dirac(point: str) -> AtomicMeasure:
    """Unit mass concentrated at a point, built from the integer weight 1."""
    return _from_weights({canonical_point(point): 1}, 1)


def pushforward(f, mu: AtomicMeasure) -> AtomicMeasure:
    """Image measure: each atom moves to its image point, collisions merge."""
    return _pushed(f, mu)


@table("pushforwards", _MEASURE_MEMO_SIZE)
def _pushed(f, mu: AtomicMeasure) -> AtomicMeasure:
    """``pushforward``, memoised: equal maps have equal rules and equal
    measures one form, so equal arguments have one image.

    The support is canonical already, so each word goes straight to
    ``PrefixTableMap._image``, which returns canonical points.
    """
    out: dict[str, int] = {}
    for p, w in zip(mu.support, mu.weights):
        q = f._image(p)
        out[q] = out.get(q, 0) + w
    return _from_weights(out, mu.denom)


def pushforward_iter(f, mu: AtomicMeasure, n: int) -> AtomicMeasure:
    for _ in range(n):
        mu = pushforward(f, mu)
    return mu


def convex_combine(weighted: list[tuple[Fraction, AtomicMeasure]]) -> AtomicMeasure:
    """Convex combination of measures; the exact rational weights must be
    >= 0 and sum to 1.  The checked boundary for user code: the library
    merges its own combinations from integer weights with ``_combine``."""
    weights = [_exact("weight", w) for w, _ in weighted]
    if any(w < 0 for w in weights):
        raise ParameterError("weights must be nonnegative")
    if sum(weights, Fraction(0)) != 1:
        raise ParameterError("weights must sum to exactly 1")
    total = lcm(*[w.denominator for w in weights])
    parts = [(w.numerator * (total // w.denominator), mu)
             for w, (_, mu) in zip(weights, weighted) if w]
    return _combine(parts, total)


def _combine(parts: list[tuple[int, AtomicMeasure]], total: int) -> AtomicMeasure:
    """The sum of (w / total) mu over ``parts``, for positive integer weights
    w that sum to ``total``: the one routine that merges weighted atoms."""
    common = lcm(*[mu.denom for _, mu in parts])
    out: dict[str, int] = {}
    for w, mu in parts:
        scale = w * (common // mu.denom)
        for p, m in zip(mu.support, mu.weights):
            out[p] = out.get(p, 0) + m * scale
    return _from_weights(out, total * common)


def cell_masses(mu: AtomicMeasure, partition: CylinderPartition) -> dict[str, Fraction]:
    """mu(a) for every cell a of the partition; values sum to 1."""
    out = dict.fromkeys(partition.cells, 0)
    for p, w in zip(mu.support, mu.weights):
        out[partition.cell_of(p)] += w
    return {c: Fraction(w, mu.denom) for c, w in out.items()}


# ---------------------------------------------------------------------------
# exact Prohorov solver


@dataclass(frozen=True)
class ProhorovResult:
    """Exact distance plus the binding subset found at the optimal interval."""

    value: Fraction
    witness_set: tuple[str, ...]
    backend: str


def _scaled_masses(mu_w, mu_d: int, nu_w, nu_d: int) -> tuple[list[int], list[int], int]:
    """Both weight tuples over their least common denominator."""
    denom = lcm(mu_d, nu_d)
    a, b = denom // mu_d, denom // nu_d
    return [w * a for w in mu_w], [w * b for w in nu_w], denom


def _sorted_form(mu: AtomicMeasure, nu: AtomicMeasure):
    """(words, mu weights, nu weights, gaps): the distinct words of both
    supports merged in ascending order, each measure's weight at every
    position (0 off its support), and the separations of consecutive words.
    Two measures on one support -- a measure and itself among them -- have
    that support as their merged words and their own weights at every
    position, so they skip the merge."""
    xs, ys, xw, yw = mu.support, nu.support, mu.weights, nu.weights
    if xs == ys:
        return xs, xw, yw, _gaps(xs)
    k, l = len(xs), len(ys)
    words, mu_w, nu_w = [], [], []
    i = j = 0
    while i < k or j < l:
        if j == l or i < k and xs[i] < ys[j]:
            word, a, b = xs[i], xw[i], 0
            i += 1
        elif i == k or ys[j] < xs[i]:
            word, a, b = ys[j], 0, yw[j]
            j += 1
        else:
            word, a, b = xs[i], xw[i], yw[j]
            i, j = i + 1, j + 1
        words.append(word)
        mu_w.append(a)
        nu_w.append(b)
    return words, tuple(mu_w), tuple(nu_w), _gaps(words)


def _thresholds(gaps) -> list[int]:
    """The interval ends of a sorted form as separations, ascending in
    distance: 0 (distance 0) first, then the distinct nonzero gaps in
    descending order.  A gap between two words of one measure that no pair
    across the measures has splits an interval in two on which the
    neighbourhoods, g and its least witness stay those of the whole, so the
    first feasible interval gives the same value and witness."""
    return [0] + sorted({n for n in gaps if n}, reverse=True)


def _runs(gaps, s: int) -> list[int]:
    """The class of each position at threshold s: consecutive positions
    share one while their gap is within 1/s ("d <= 1/s" reads n == 0 or
    0 < s <= n), so the classes of the ultrametric are runs, and every
    position is its own class at s = 0 unless its word repeats."""
    c, runs = 0, [0]
    for n in gaps:
        if n and not 0 < s <= n:
            c += 1
        runs.append(c)
    return runs


def _g_closed_form(mu_int, nu_int, gaps, s: int) -> tuple[int, tuple[int, ...]]:
    """max over subsets X of mu's support of mu(X) - nu(neighborhood(X)),
    as a numerator over the common denominator, at threshold s, with the
    witness as positions, in closed form for an ultrametric.

    "d <= 1/s" is an equivalence relation whose classes B are runs of the
    sorted words, and the neighbourhood of a mu-atom is the nu-atoms of its
    class.  The maximum is the sum of the positive class excesses
    mu(B) - nu(B), attained by the mu-atoms of the positive classes (the
    least maximizing subset).
    """
    runs = _runs(gaps, s)
    excess = [0] * (runs[-1] + 1)
    for r, a, b in zip(runs, mu_int, nu_int):
        excess[r] += a - b
    witness = tuple(p for p, r in enumerate(runs) if mu_int[p] and excess[r] > 0)
    return sum(e for e in excess if e > 0), witness


def _oracle(g_of, mu_int, nu_int, gaps):
    """``g_at(s)`` of an oracle ``g_of`` on a sorted form: the rows are the
    positions of mu's atoms, the columns those of nu's, and a row's mask at
    threshold s holds the columns in its run.  The witness rows are mapped
    back to positions."""
    rows = [p for p, m in enumerate(mu_int) if m]
    cols = [q for q, m in enumerate(nu_int) if m]
    mu_rows, nu_cols = [mu_int[p] for p in rows], [nu_int[q] for q in cols]

    def g_at(s):
        runs = _runs(gaps, s)
        in_run = [0] * (runs[-1] + 1)
        for j, q in enumerate(cols):
            in_run[runs[q]] |= 1 << j
        g, witness = g_of(mu_rows, nu_cols, [in_run[runs[p]] for p in rows])
        return g, tuple(rows[i] for i in witness)

    return g_at


def _g_enumeration(mu_int, nu_int, adj_masks) -> tuple[int, tuple[int, ...]]:
    """max over subsets X of mu's support of mu(X) - nu(neighborhood(X)),
    by brute force over all subsets (an oracle for the closed form).  Both
    sides are bounded, because a table of 2^l subset masses of nu is built."""
    k, l = len(mu_int), len(nu_int)
    if max(k, l) > ENUMERATION_LIMIT:
        raise BackendSelectionError(f"enumeration backend limited to {ENUMERATION_LIMIT} "
                                    f"atoms per measure, got {k} and {l}")
    nu_sum = [0] * (1 << l)
    for mask in range(1, 1 << l):
        low = mask & -mask
        nu_sum[mask] = nu_sum[mask ^ low] + nu_int[low.bit_length() - 1]
    best, best_mask = 0, 0
    mu_sum = [0] * (1 << k)
    nbr = [0] * (1 << k)
    for mask in range(1, 1 << k):
        low = mask & -mask
        i = low.bit_length() - 1
        mu_sum[mask] = mu_sum[mask ^ low] + mu_int[i]
        nbr[mask] = nbr[mask ^ low] | adj_masks[i]
        val = mu_sum[mask] - nu_sum[nbr[mask]]
        if val > best:
            best, best_mask = val, mask
    witness = tuple(i for i in range(k) if best_mask >> i & 1)
    return best, witness


def _g_flow(mu_int, nu_int, adj_masks) -> tuple[int, tuple[int, ...]]:
    """Same maximum as the enumeration backend, via max-flow/min-cut duality.

    The uncoupled mass of a maximum partial coupling supported on adjacent
    pairs equals max_X [mu(X) - nu(neighborhood(X))].  The coupling grows
    along shortest augmenting paths: a breadth-first search starts at the
    mu-atoms with mass left, goes forward to adjacent nu-atoms and back
    along coupled mass, and stops at a nu-atom with mass left.  When no path
    is left, the mu-atoms that the last search reached are the source side
    of the least minimum cut, which every maximum flow leaves the same; they
    are the least maximizing subset, so the witness does not depend on the
    paths taken.  Masses stay integers, so every step is exact.

    The coupling starts greedy: each adjacent (mu-atom, nu-atom) pair, in
    order, couples the lesser of the two masses left.  That is a feasible
    flow, so the loop only finds the augmenting paths it leaves, and since
    the least minimum cut is the same for every maximum flow, the value and
    the witness are those of a start from the empty coupling.
    """
    supply, demand = list(mu_int), list(nu_int)
    coupled = [{} for _ in nu_int]  # per nu-atom: mu-atom -> coupled mass
    adjacent = [[j for j in range(len(nu_int)) if mask >> j & 1] for mask in adj_masks]
    for i, row in enumerate(adjacent):
        for j in row:
            amount = min(supply[i], demand[j])
            if amount:
                supply[i] -= amount
                demand[j] -= amount
                coupled[j][i] = amount
    while True:
        queue = [i for i, m in enumerate(supply) if m]
        via = dict.fromkeys(queue)  # reached mu-atom -> the nu-atom it came back from
        reached = {}  # reached nu-atom -> the mu-atom it came from
        end = None
        for i in queue:
            for j in adjacent[i]:
                if j not in reached:
                    reached[j] = i
                    if demand[j]:
                        end = j
                        break
                    for b in coupled[j]:
                        if b not in via:
                            via[b] = j
                            queue.append(b)
            if end is not None:
                break
        if end is None:
            return sum(supply), tuple(sorted(via))
        path, j = [], end  # the forward (mu-atom, nu-atom) edges, from the end back
        while j is not None:
            path.append((reached[j], j))
            j = via[reached[j]]
        start = path[-1][0]
        amount = min([supply[start], demand[end]] + [coupled[via[i]][i] for i, _ in path[:-1]])
        supply[start] -= amount
        demand[end] -= amount
        for i, j in path:
            coupled[j][i] = coupled[j].get(i, 0) + amount
            if via[i] is not None:
                coupled[via[i]][i] -= amount
                if not coupled[via[i]][i]:
                    del coupled[via[i]][i]


def _interval_value(g: int, denom: int, s: int, s_next: int | None) -> Fraction | None:
    """The clamp of one threshold interval (1/s, 1/s_next] (from distance 0
    at s = 0; unbounded at s_next = None), whose neighborhood is the one at
    1/s and whose g is g/denom: None when the interval holds no feasible
    delta (g/denom > 1/s_next), else max(g/denom, 1/s).  The only place
    where a distance becomes a Fraction."""
    if s_next is not None and g * s_next > denom:
        return None
    return Fraction(g, denom) if s == 0 or g * s >= denom else Fraction(1, s)


def _clamped_min(thresholds: list[int], denom: int, g_at) -> tuple[Fraction, object]:
    """Least clamped value over the threshold intervals.

    ``thresholds`` are separations, as ``_thresholds`` lists them; on the
    interval from 1/s to the next threshold the neighborhood is the one at
    1/s, and ``g_at(s)`` returns (g, payload) for it with g a numerator over
    ``denom``.  ``_interval_value`` decides each interval in integers and
    makes the one Fraction returned.  The first interval that holds a
    feasible delta attains the least value, because its value is at most the
    next threshold and every later one is at least that, so it is returned
    with its payload and g is not evaluated beyond it.

    Counting the infeasible intervals as candidates too would not change
    the value: g only falls as the threshold grows, so such a candidate
    max(g, 1/s) = g is never below the next interval's.  Skipping them only
    picks which of several tied intervals reports its payload (the witness
    set of ``prohorov``).
    """
    for s, s_next in zip(thresholds, thresholds[1:] + [None]):
        g, payload = g_at(s)
        value = _interval_value(g, denom, s, s_next)
        if value is not None:
            return value, payload
    raise AssertionError("unreachable: the last interval is always feasible")


_ORACLES = {"enumeration": _g_enumeration, "flow": _g_flow}


def _one_sided_value(
    mu_int, nu_int, denom: int, gaps, backend: str
) -> tuple[Fraction, tuple[int, ...]]:
    """The distance and the witness positions from per-position scaled
    masses over ``denom`` and the ``gaps`` of the sorted words."""
    if backend == "auto":
        g_at = partial(_g_closed_form, mu_int, nu_int, gaps)
    else:
        g_at = _oracle(_ORACLES[backend], mu_int, nu_int, gaps)
    return _clamped_min(_thresholds(gaps), denom, g_at)


def prohorov(mu: AtomicMeasure, nu: AtomicMeasure, backend: str = "auto") -> ProhorovResult:
    """Exact Prohorov distance via the one-sided condition.

    ``backend`` is "auto" (the ultrametric closed form, at every support
    size), one of the oracles "enumeration" (at most ``ENUMERATION_LIMIT``
    atoms per measure) and "flow", or "both" (closed form and flow,
    insisting on exact agreement).  The result names the solver that ran:
    "closed_form" for "auto".
    """
    words, mu_w, nu_w, gaps = _sorted_form(mu, nu)
    value, witness, name = _solved_problem(mu_w, mu.denom, nu_w, nu.denom, gaps, backend)
    return ProhorovResult(value, tuple(words[p] for p in witness), name)


@table("solves", _PROBLEM_MEMO_SIZE)
def _solved_problem(mu_w, mu_d: int, nu_w, nu_d: int, gaps, backend: str):
    """(value, witness positions, backend name) of the integer problem that
    ``prohorov`` and ``prohorov_distance`` read off a pair of measures; the
    words never enter it.  The result is frozen, and a raised error is not
    kept."""
    if backend not in BACKENDS:
        raise BackendSelectionError(f"unknown backend {backend!r}")
    mu_int, nu_int, denom = _scaled_masses(mu_w, mu_d, nu_w, nu_d)
    if backend == "both":
        v1, w1 = _one_sided_value(mu_int, nu_int, denom, gaps, "auto")
        v2, _ = _one_sided_value(mu_int, nu_int, denom, gaps, "flow")
        if v1 != v2:
            raise CertificationError(f"backends disagree: {v1} vs {v2}")
        return v1, w1, "both"
    value, witness = _one_sided_value(mu_int, nu_int, denom, gaps, backend)
    return value, witness, "closed_form" if backend == "auto" else backend


def prohorov_distance(mu: AtomicMeasure, nu: AtomicMeasure, backend: str = "auto") -> Fraction:
    """The value of ``prohorov`` alone: the same integer problem, memo,
    backends and errors, but no ``ProhorovResult`` is built and no witness
    position is mapped onto a word.  Every library caller that reads only
    the distance -- orbit windows, distance rows, chains -- asks this."""
    _, mu_w, nu_w, gaps = _sorted_form(mu, nu)
    return _solved_problem(mu_w, mu.denom, nu_w, nu.denom, gaps, backend)[0]


def prohorov_two_sided(mu: AtomicMeasure, nu: AtomicMeasure, backend: str = "flow") -> Fraction:
    """Infimum of the symmetric condition; equals the one-sided value.

    Kept as an independent oracle so the equality of the two formulations
    can be cross-checked on every input.  It has no closed form: ``backend``
    is "flow" or "enumeration" (at most ``ENUMERATION_LIMIT`` atoms per
    measure), and any other name raises BackendSelectionError.
    """
    g_of = _ORACLES.get(backend)
    if g_of is None:
        raise BackendSelectionError(f"unknown two-sided backend {backend!r}")
    _, mu_w, nu_w, gaps = _sorted_form(mu, nu)
    mu_int, nu_int, denom = _scaled_masses(mu_w, mu.denom, nu_w, nu.denom)
    forward = _oracle(g_of, mu_int, nu_int, gaps)
    backward = _oracle(g_of, nu_int, mu_int, gaps)
    return _clamped_min(
        _thresholds(gaps), denom, lambda s: (max(forward(s)[0], backward(s)[0]), None)
    )[0]


# ---------------------------------------------------------------------------
# serialization

EMPTY_WORD_TOKEN = "e"


def measure_from_lines(lines) -> AtomicMeasure:
    atoms = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParameterError(f"line {lineno}: expected '<point> <p/q>', got {raw!r}")
        word, mass = parts
        if word == EMPTY_WORD_TOKEN:
            word = ""
        try:
            atoms.append((word, Fraction(mass)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"line {lineno}: bad mass {mass!r}: {exc}") from exc
    return atomic_measure(atoms)
