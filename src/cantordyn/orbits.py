"""Exact orbit analysis for the induced map on atomic measures.

Orbits of measures under a prefix-table map are computed exactly.  Two
mechanisms certify eventual periodicity of a distance sequence:

* state cycle: the measure tuple literally repeats, which happens whenever
  atoms stay on cell representatives (zero tails);

* padded cycle: under a bijective table, atoms that keep absorbing into a
  loop acquire a growing run of zeros in the middle of their words and the
  states never repeat literally.  If every atom of the later state equals
  the corresponding atom of the earlier state with a single zero-run
  extended, the insertion points lie beyond every fired rule domain and
  beyond every pairwise first difference, and the masses and the full joint
  separation matrix repeat across one whole period window, then the rule
  firing pattern and hence the distance data repeat forever.  Distances of
  measures depend only on masses and the pairwise separations, so the
  distance sequence is eventually periodic even though the states are not.

Anything that fits neither mechanism within its budget raises
ResourceBudgetError rather than returning an unproven answer.

One engine, ``_evolve_distance_sequence``, implements both mechanisms.  It
only certifies: it returns the certified window -- the states up to
preperiod + period and their joint separation matrices (integers n with
d = 1/n, one ``cantor.separation`` per unordered pair; the padded check
reads first differences off them directly) -- and its callers evaluate that
window.  Distance profiles and target distances solve each window state
from a block of its joint matrix, ``recurrence.approx_by_periodic`` reads
its return time off the profile of an orbit against its start, and
``grids.track_representatives`` keeps the matrices of the jointly tracked
cell representatives.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .cantor import separation
from .errors import ParameterError, ResourceBudgetError
from .maps import PrefixTableMap
from .measures import AtomicMeasure, _one_sided_value, pushforward

DEFAULT_BUDGET = 400  # the one step budget of every certified orbit


@dataclass(frozen=True)
class DistanceProfile:
    """An eventually periodic sequence of exact distances.

    ``values`` lists d_0 .. d_{preperiod+period-1}; from index ``preperiod``
    on, the sequence repeats with period ``period``.  ``certificate`` records
    which mechanism established the repetition.
    """

    values: tuple[Fraction, ...]
    preperiod: int
    period: int
    certificate: str

    @property
    def liminf(self) -> Fraction:
        return min(self.values[self.preperiod:])

    @property
    def limsup(self) -> Fraction:
        return max(self.values[self.preperiod:])

    def value_at(self, n: int) -> Fraction:
        if n < len(self.values):
            return self.values[n]
        return self.values[self.preperiod + (n - self.preperiod) % self.period]

    def infimum(self) -> Fraction:
        """inf over all n >= 0 (attained: the sequence takes finitely many values)."""
        return min(self.values)

    def supremum(self) -> Fraction:
        return max(self.values)


class PairClass(enum.Enum):
    ASYMPTOTIC = "asymptotic"
    SEPARATED_BELOW = "separated_below"
    LI_YORKE_PAIR = "li_yorke_pair"


def li_yorke_classify(profile: DistanceProfile) -> PairClass:
    """Classify a pair by the exact liminf/limsup of its distance sequence."""
    return _li_yorke_rule(profile.liminf, profile.limsup)


def _li_yorke_rule(liminf: Fraction, limsup: Fraction) -> PairClass:
    """The class of a pair whose distances have this liminf and limsup."""
    if limsup == 0:
        return PairClass.ASYMPTOTIC
    if liminf > 0:
        return PairClass.SEPARATED_BELOW
    return PairClass.LI_YORKE_PAIR


def upper_density(cycle_pattern) -> Fraction:
    """Exact upper density of an eventually periodic subset of N.

    The running averages of an eventually periodic indicator converge, so
    the upper density (which is also the lower density) equals the fraction
    of hits in the cycle; the preperiod never matters.
    """
    cycle = [bool(b) for b in cycle_pattern]
    if not cycle:
        raise ParameterError("cycle pattern must be nonempty")
    return Fraction(sum(cycle), len(cycle))


def distributional_densities(
    profile: DistanceProfile, eps: Fraction, delta: Fraction
) -> tuple[Fraction, Fraction]:
    """Upper densities of {n : d_n >= eps} and {n : d_n < delta}.

    A pair is distributionally eps-chaotic when the first density is 1 and
    the second is 1 for every positive delta.
    """
    cycle = profile.values[profile.preperiod:]
    return (
        upper_density([v >= eps for v in cycle]),
        upper_density([v < delta for v in cycle]),
    )


# ---------------------------------------------------------------------------
# the padded-cycle engine


def _joint_record(state: tuple[AtomicMeasure, ...], frozen: tuple[str, ...]):
    """(per-measure integer masses, words, joint separation matrix) of a state.

    The matrix is symmetric with a zero diagonal, so each unordered pair of
    words is separated once.
    """
    words = [p for mu in state for p in mu.support]
    words.extend(frozen)
    k = len(words)
    rows = [[0] * k for _ in range(k)]
    for i, u in enumerate(words):
        row = rows[i]
        for j in range(i + 1, k):
            row[j] = rows[j][i] = separation(u, words[j])
    masses = tuple((mu.weights, mu.denom) for mu in state)
    return masses, words, tuple(map(tuple, rows))


def _pad_descriptor(w_old: str, w_new: str) -> tuple[int, int] | None:
    """(insert position, growth) when w_new is w_old with one zero-run extended."""
    if w_new == w_old:
        return (len(w_old), 0)
    g = len(w_new) - len(w_old)
    if g <= 0:
        return None
    c = 0
    while c < len(w_old) and w_old[c] == w_new[c]:
        c += 1
    if w_new[c: c + g] == "0" * g and w_new[c + g:] == w_old[c:]:
        return (c, g)
    return None


def _verify_padded_window(f: PrefixTableMap, record, n_frozen: int, start: int, tau: int) -> bool:
    """Check the padding certificate on the window [start, start+tau].

    ``record(k)`` is the joint record of state k, needed up to index
    start + 2*tau.  On success the joint distance data is periodic with
    period tau from index start on.  Neither the masses nor the matrix
    follow from the word pairing: atoms may trade masses while keeping their
    words, and a moving atom may sit on a frozen word and then pad away.
    """
    for j in range(start, start + tau + 1):
        masses_a, words_a, matrix_a = record(j)
        masses_b, words_b, matrix_b = record(j + tau)
        # equal per-measure weights also pair the atoms by index
        if masses_a != masses_b:
            return False
        inserts = []
        n_moving = len(words_a) - n_frozen
        for i, (wa, wb) in enumerate(zip(words_a, words_b)):
            if i >= n_moving:
                if wa != wb:
                    return False
                continue
            desc = _pad_descriptor(wa, wb)
            if desc is None:
                return False
            c, g = desc
            if g > 0:
                dom, _ = f._match(wa)
                if c < len(dom):
                    return False
                inserts.append(c)
        if matrix_a != matrix_b:
            return False
        # a separation n is a first difference at index n - 1
        if inserts and max(map(max, matrix_a)) > min(inserts):
            return False
    return True


def _evolve_distance_sequence(
    f: PrefixTableMap,
    initial: tuple[AtomicMeasure, ...],
    frozen: tuple[str, ...],
    budget: int,
) -> tuple[tuple[tuple[AtomicMeasure, ...], ...], tuple, int, int, str]:
    """Shared engine: evolve the measures and certify that their joint
    distance data is eventually periodic.

    Returns the certified window -- the states 0 .. preperiod+period-1 and
    their joint separation matrices -- with the preperiod, the period and the
    certificate kind.  Nothing is evaluated on the states: callers map
    their own value over the window.
    """
    states: list[tuple[AtomicMeasure, ...]] = [initial]
    records: list = []  # records[k] is the joint record of states[k], built once
    exact_seen: dict = {initial: 0}
    sig_seen: dict = {}
    failed: set = set()

    def ensure(k: int) -> None:
        while len(states) <= k:
            states.append(tuple(pushforward(f, mu) for mu in states[-1]))

    def record(k: int):
        while len(records) <= k:
            records.append(_joint_record(states[len(records)], frozen))
        return records[k]

    def signature(k: int):
        masses, _, matrix = record(k)
        return masses, matrix

    def window(rho: int, tau: int, kind: str):
        n = rho + tau
        return tuple(states[:n]), tuple(r[2] for r in records[:n]), rho, tau, kind

    sig_seen[signature(0)] = [0]

    for n in range(1, budget + 1):
        ensure(n)
        st = states[n]
        rho = exact_seen.get(st)
        if rho is not None:
            return window(rho, n - rho, "state-cycle")
        exact_seen[st] = n
        sig = signature(n)
        for rho in reversed(sig_seen.get(sig, ())):
            tau = n - rho
            if (rho, tau) in failed or rho + 2 * tau > budget:
                continue
            ensure(rho + 2 * tau)
            if _verify_padded_window(f, record, len(frozen), rho, tau):
                return window(rho, tau, "padded-cycle")
            failed.add((rho, tau))
        sig_seen.setdefault(sig, []).append(n)
    raise ResourceBudgetError(
        f"no certified eventual periodicity within {budget} steps"
    )


def _solved_window(
    f: PrefixTableMap, mu: AtomicMeasure, nu: AtomicMeasure, nu_moves: bool
) -> DistanceProfile:
    """Profile of d(f~^n mu, nu_n), where nu_n is f~^n nu if ``nu_moves`` and
    nu itself otherwise (nu's words frozen in the engine).

    Each window state is solved from the cross block of its joint matrix:
    the rows are mu's words, which come first, and the columns are the words
    after them, nu's.
    """
    initial, frozen = ((mu, nu), ()) if nu_moves else ((mu,), nu.support)
    states, matrices, rho, tau, kind = _evolve_distance_sequence(
        f, initial, frozen, DEFAULT_BUDGET
    )
    values = []
    for state, matrix in zip(states, matrices):
        k = len(state[0])
        block = tuple(row[k:] for row in matrix[:k])
        values.append(_one_sided_value(state[0], state[1] if nu_moves else nu, block)[0])
    return DistanceProfile(tuple(values), rho, tau, kind)


def distance_profile(f: PrefixTableMap, mu: AtomicMeasure, nu: AtomicMeasure) -> DistanceProfile:
    """Exact profile of d(f~^n mu, f~^n nu) with certified liminf/limsup."""
    return _solved_window(f, mu, nu, True)


def orbit_distance_to_target(
    f: PrefixTableMap, mu: AtomicMeasure, target: AtomicMeasure
) -> DistanceProfile:
    """Exact profile of d(f~^n mu, target) against a fixed target measure."""
    return _solved_window(f, mu, target, False)
