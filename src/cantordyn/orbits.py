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
  beyond every pairwise first-difference position, and the full joint
  distance matrix repeats across one whole period window, then the rule
  firing pattern and hence the distance data repeat forever.  Distances of
  measures depend only on masses and the pairwise distance matrix, so the
  distance sequence is eventually periodic even though the states are not.

Anything that fits neither mechanism within its budget raises
ResourceBudgetError rather than returning an unproven answer.

One engine, ``_evolve_distance_sequence``, implements both mechanisms.  It
certifies the measure orbits behind distance profiles and target distances,
and also the jointly tracked cell representatives of
``grids.track_representatives``, whose unit masses make its signature the
bare distance matrix of the words.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .cantor import first_difference
from .errors import ParameterError, ResourceBudgetError
from .maps import PrefixTableMap
from .measures import AtomicMeasure, prohorov_distance, pushforward

DEFAULT_BUDGET = 400


@dataclass(frozen=True)
class OrbitSummary:
    """Exact eventual periodicity of a measure orbit.

    ``states`` holds the first preperiod + period states; the state at index
    preperiod + period equals the one at index preperiod, and both parts are
    minimal.
    """

    preperiod: int
    period: int
    states: tuple[AtomicMeasure, ...]


def orbit_summary(f: PrefixTableMap, mu: AtomicMeasure, budget: int = DEFAULT_BUDGET) -> OrbitSummary:
    """Iterate the induced map until the exact state repeats."""
    seen = {mu: 0}
    states = [mu]
    for n in range(1, budget + 1):
        mu = pushforward(f, mu)
        if mu in seen:
            rho = seen[mu]
            return OrbitSummary(rho, n - rho, tuple(states))
        seen[mu] = n
        states.append(mu)
    raise ResourceBudgetError(f"no exact state cycle within {budget} steps")


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
    if profile.limsup == 0:
        return PairClass.ASYMPTOTIC
    if profile.liminf > 0:
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


def _joint_atoms(state: tuple[AtomicMeasure, ...], frozen: tuple[str, ...]):
    words, masses = [], []
    for mu in state:
        for p, m in mu.atoms:
            words.append(p)
            masses.append(m)
    words.extend(frozen)
    return words, tuple(masses)


def _distance_matrix_of(words: list[str]) -> tuple:
    n = len(words)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j < i:
                row.append(rows[j][i])
            elif j == i:
                row.append(Fraction(0))
            else:
                fd = first_difference(words[i], words[j])
                row.append(Fraction(0) if fd is None else Fraction(1, fd + 1))
        rows.append(row)
    return tuple(tuple(r) for r in rows)


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


def _verify_padded_window(
    f: PrefixTableMap,
    states: list[tuple[AtomicMeasure, ...]],
    frozen: tuple[str, ...],
    start: int,
    tau: int,
) -> bool:
    """Check the padding certificate on the window [start, start+tau].

    Needs states up to index start + 2*tau.  On success the joint distance
    data is periodic with period tau from index start on.
    """
    for j in range(start, start + tau + 1):
        if tuple(len(mu) for mu in states[j]) != tuple(len(mu) for mu in states[j + tau]):
            return False  # atom pairing by index needs matching per-measure splits
        words_a, masses_a = _joint_atoms(states[j], frozen)
        words_b, masses_b = _joint_atoms(states[j + tau], frozen)
        if masses_a != masses_b or len(words_a) != len(words_b):
            return False
        inserts = []
        n_moving = len(words_a) - len(frozen)
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
                dom, _ = f.matching_rule(wa)
                if c < len(dom):
                    return False
                inserts.append(c)
        min_insert = min(inserts, default=None)
        matrix_a = _distance_matrix_of(words_a)
        if matrix_a != _distance_matrix_of(words_b):
            return False
        if min_insert is not None:
            for i in range(len(words_a)):
                for k in range(i + 1, len(words_a)):
                    d = matrix_a[i][k]
                    # point distances are 1/(first difference + 1)
                    if d > 0 and d.denominator - 1 >= min_insert:
                        return False
    return True


def _evolve_distance_sequence(
    f: PrefixTableMap,
    initial: tuple[AtomicMeasure, ...],
    frozen: tuple[str, ...],
    value_fn,
    budget: int,
) -> tuple[list[Fraction], int, int, str]:
    """Shared engine: evolve measures, certify an eventual period of the
    value sequence, return (values up to preperiod+period, preperiod,
    period, certificate kind)."""
    states: list[tuple[AtomicMeasure, ...]] = [initial]
    values: list[Fraction] = [value_fn(initial)]
    exact_seen: dict = {initial: 0}
    sig_seen: dict = {}
    failed: set = set()

    def signature(state):
        words, masses = _joint_atoms(state, frozen)
        split = tuple(len(mu) for mu in state)
        return (split, masses, _distance_matrix_of(words))

    def ensure(k: int) -> None:
        while len(states) <= k:
            nxt = tuple(pushforward(f, mu) for mu in states[-1])
            states.append(nxt)
            values.append(value_fn(nxt))

    sig_seen[signature(initial)] = [0]

    for n in range(1, budget + 1):
        ensure(n)
        st = states[n]
        rho = exact_seen.get(st)
        if rho is not None:
            return values[: n], rho, n - rho, "state-cycle"
        exact_seen[st] = n
        sig = signature(st)
        for rho in reversed(sig_seen.get(sig, ())):
            tau = n - rho
            if (rho, tau) in failed or rho + 2 * tau > budget:
                continue
            ensure(rho + 2 * tau)
            if _verify_padded_window(f, states, frozen, rho, tau):
                return values[: rho + tau], rho, tau, "padded-cycle"
            failed.add((rho, tau))
        sig_seen.setdefault(sig, []).append(n)
    raise ResourceBudgetError(
        f"no certified eventual periodicity within {budget} steps"
    )


def distance_profile(
    f: PrefixTableMap,
    mu: AtomicMeasure,
    nu: AtomicMeasure,
    budget: int = DEFAULT_BUDGET,
    backend: str = "auto",
) -> DistanceProfile:
    """Exact profile of d(f~^n mu, f~^n nu) with certified liminf/limsup."""
    values, rho, tau, kind = _evolve_distance_sequence(
        f,
        (mu, nu),
        (),
        lambda st: prohorov_distance(st[0], st[1], backend),
        budget,
    )
    return DistanceProfile(tuple(values), rho, tau, kind)


def orbit_distance_to_target(
    f: PrefixTableMap,
    mu: AtomicMeasure,
    target: AtomicMeasure,
    budget: int = DEFAULT_BUDGET,
    backend: str = "auto",
) -> DistanceProfile:
    """Exact profile of d(f~^n mu, target) against a fixed target measure."""
    frozen = tuple(p for p, _ in target.atoms)
    values, rho, tau, kind = _evolve_distance_sequence(
        f,
        (mu,),
        frozen,
        lambda st: prohorov_distance(st[0], target, backend),
        budget,
    )
    return DistanceProfile(tuple(values), rho, tau, kind)
