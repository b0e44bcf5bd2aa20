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
  beyond every pairwise first difference, and the masses and the joint
  sorted form of the words repeat across one whole period window, then the
  rule firing pattern and hence the distance data repeat forever.
  Distances of measures depend only on masses and the pairwise separations,
  so the distance sequence is eventually periodic even though the states
  are not.

Anything that fits neither mechanism within its budget raises
ResourceBudgetError rather than returning an unproven answer.

One engine, ``_evolve_distance_sequence``, implements both mechanisms.  It
only certifies: it returns the certified window -- the states up to
preperiod + period -- with the pads its window check found, and its callers
evaluate that window.  Its step table
holds each state's per-measure integer masses and moving words, computed
once, when the state is pushed, and each step is keyed on its masses and
the ones of each moving word.  Padding inserts zeros only, so a padded
partner keeps the key, and the cycle closes only where the sorted forms of
the two steps are equal: the sort order of the words and the separations of
consecutive words (integers n with d = 1/n), built by
``cantor._sorted_form``.  So the one candidate lookup is by (key, sorted
form): a step with a new key builds no sorted form, and every candidate
goes to the one window check, ``_verify_padded_window``: the pad test
first, then the sorted forms, which hold every pairwise separation and give
the largest first difference.  Every word fact it uses is computed once per
process: separations, which the sorted forms and the pad test's insert
positions read, come from the separation table of ``cantor``, and images
and the domain length of the fired rule, which the pad test reads, from the
image table of ``maps``.  Target distances and joint profiles solve each
window state with ``measures.prohorov_distance``, the value-only solve,
whose memo is keyed on the integer problem, the masses and the gaps between
the sorted words and not the words, so a state whose problem recurs, in a
padded window or across profiles, is solved once;
``recurrence.approx_by_periodic`` reads its return time off the profile of
an orbit against its start, and ``grids.track_representatives`` keeps the
sorted forms of the tracked cell representatives, built by the same
routine.

A pair profile is composed from the two measures' own orbits where it can
be.  A table registered in ``tables`` as ``cycles`` holds, per (map,
measure), the engine's certificate of that measure alone: its window, the
distance rows of the window's states and (rho, tau) when the orbit is a
state cycle, ``_PADDED`` when the engine certifies a padded cycle and None
when it runs out of budget, so each orbit is certified once per process
however many pairs it enters.

Lemma.  Let mu and nu have state cycles (rho_mu, tau_mu) and (rho_nu,
tau_nu), and let rho = max(rho_mu, rho_nu) and tau = lcm(tau_mu, tau_nu).

1. The pair state (f~^n mu, f~^n nu) first repeats at n = rho + tau, and
   it repeats state rho: a repeat of the pair at n of state m < n repeats
   both orbits, so m is at least both preperiods and n - m a multiple of
   both periods.
2. No padded window passes before that step.  A window whose words are all
   unpadded at its first step is a literal repeat, which the state check,
   run first at each step, catches at the same n.  A window that passes
   with some padding makes its padding recur every period, so the words
   grow without bound, which a literally periodic sequence cannot do.

So ``_evolve_distance_sequence(f, (mu, nu), (), DEFAULT_BUDGET)`` returns
exactly (states[:rho + tau], rho, tau, "state-cycle", ()) when rho + tau is
within the budget, and ``distance_profile`` reads the distances of those
states, off the two records, from distance rows.  When a record is
``_PADDED`` or rho + tau exceeds the budget, the joint engine certifies the
pair as before; it stays the fallback and the oracle of the composition.

Lemma.  When both measures move, the joint candidates are own candidates:
if the joint run ``_evolve_distance_sequence(f, (mu, nu), (), budget)``
closes at step n, mu's own run closes at step n or before.  A joint state
cycle repeats mu's state.  A joint padded window repeats mu's masses, and
mu's words are some of the joint words, so they pass the pad test with some
of the joint inserts, and mu's steps share their key.  The joint sorted
form fixes mu's, as in the target lemma below, so mu's own largest gap is
at most the joint one, which is at most the least joint insert, which is at
most the least of mu's inserts.  So the window passes mu's own check, and
mu's own run, unless it closed earlier, finds a passing candidate at step
n.  Hence when either record is None the pair runs out of budget too, and
``distance_profile`` raises the joint engine's error at once.

The distances of a composed window are read from distance rows.  A table
registered as ``distance_rows`` gives, per measure, the row of that state,
and a ``cycles`` record holds the row of each of its window states: the
exact distance to each state it was paired with, keyed by that state's
row, filled by ``prohorov_distance`` when first asked.  A row hashes and
compares by identity, and an entry keyed by a row keeps that row alive, so
the key names no other state: a row entry holds the distance of the two
measures whose rows it joins.  Rows live until ``tables.reset()`` drops the
records and the rows that hold them.  A distance depends only on the two
measures, not on the map, the orbit or the step, so this needs no lemma:
each distinct (state, state) pair is solved once however many windows
hold it, and each value is the ``prohorov`` value itself.

A target distance reads the same orbit.  A table registered as ``orbits``
holds, for the last 4 (map, measure) pairs, the engine's whole certificate
of the measure alone: its window, (rho, tau) and kind, and for a padded
cycle, for each step j in [rho, rho + tau] whose pad test has inserts, the
words of step j, those that pad and m_j, their least insert, as the
engine's window check found them; None when the engine runs out of
budget.  ``cycles`` reads it, and keeps only its state cycles whole.  The
shadowing suite asks for one measure's anchors back to back, under h and
its inverse, so 4 records serve it; a table as large as ``cycles`` would
keep a whole grid's padded windows alive.

Lemma.  Let a target have words T, frozen, and compare the joint run
``_evolve_distance_sequence(f, (mu,), T, DEFAULT_BUDGET)`` with mu's own
run ``_evolve_distance_sequence(f, (mu,), (), DEFAULT_BUDGET)``.

1. A window that passes the joint check passes the own check.  The joint
   sorted form fixes the own one: the order of the moving words, and each
   own gap as the least joint gap between them, so the own largest gap is
   at most the joint one.  The step key and the state check never read
   frozen words.  So at every step the joint candidates are own
   candidates, and the joint engine cannot close before the own engine.
2. At the own certificate (rho, tau), the joint check passes exactly when,
   at every j in [rho, rho + tau] whose pad test has inserts, every
   separation between a target word and a moving word of step j, and
   between two target words, is at most m_j, and no word that pads at j
   equals a target word.  The joint largest gap bounds those separations,
   and a padded word equal to a target word at j differs from it at
   j + tau, so the joint forms differ.  Conversely, every first difference
   that involves a padded word lies before its insert, so padding keeps
   every order and separation.
3. Hence an own state cycle gives the joint result exactly, and so does an
   own padded cycle that passes 2: at step rho + tau the joint candidates
   newer than rho are own candidates that failed the own check, so they
   fail the joint one too.  An own run that exhausts the budget means the
   joint run exhausts it as well.  In every other case
   ``orbit_distance_to_target`` runs the joint engine, which stays the
   fallback and the oracle of this path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cantor import _sorted_form, separation
from .errors import ResourceBudgetError
from .maps import PrefixTableMap, _rewritten
from .measures import AtomicMeasure, prohorov_distance, pushforward
from .tables import table

DEFAULT_BUDGET = 400  # the one step budget of every certified orbit
# one record per measure of a whole entropy grid: entropy_estimate sweeps nu
# over the grid for each mu, so a table smaller than the grid misses on every call
_CYCLE_TABLE_SIZE = 4096
# the shadowing suite reads a measure's orbits under h and its inverse for one
# anchor and then the other; a larger table keeps a grid's padded windows alive
_ORBIT_TABLE_SIZE = 4


def _term(window, preperiod: int, period: int, n: int):
    """Term n of the eventually periodic sequence certified by ``window``,
    its terms 0 .. preperiod+period-1."""
    return window[_index(preperiod, period, n)]


def _index(preperiod: int, period: int, n: int) -> int:
    """The index of term n in a window of preperiod + period terms."""
    return n if n < preperiod + period else preperiod + (n - preperiod) % period


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
        return _term(self.values, self.preperiod, self.period, n)

    def infimum(self) -> Fraction:
        """inf over all n >= 0 (attained: the sequence takes finitely many values)."""
        return min(self.values)

    def supremum(self) -> Fraction:
        return max(self.values)


class PairClass(enum.Enum):
    ASYMPTOTIC = "asymptotic"
    SEPARATED_BELOW = "separated_below"
    LI_YORKE_PAIR = "li_yorke_pair"


def _li_yorke_rule(liminf: Fraction, limsup: Fraction) -> PairClass:
    """The class of a pair whose distances have this liminf and limsup."""
    if limsup == 0:
        return PairClass.ASYMPTOTIC
    if liminf > 0:
        return PairClass.SEPARATED_BELOW
    return PairClass.LI_YORKE_PAIR


# ---------------------------------------------------------------------------
# the padded-cycle engine


def _pad_inserts(f: PrefixTableMap, words_a, words_b) -> list[int] | None:
    """The pad test: the insert positions of the words of ``words_b`` that
    are their partners in ``words_a`` with one zero-run extended beyond the
    rule domain that fires on them, when every other word is unchanged;
    None when some pair is neither.  For distinct canonical words the
    insert position is their first difference, separation - 1."""
    inserts = []
    for wa, wb in zip(words_a, words_b):
        if wb == wa:
            continue
        g = len(wb) - len(wa)
        if g <= 0:
            return None
        c = separation(wa, wb) - 1
        if wb[c: c + g] != "0" * g or wb[c + g:] != wa[c:] or c < _rewritten(f, wa)[1]:
            return None
        inserts.append(c)
    return inserts


def _verify_padded_window(f: PrefixTableMap, step, form, start: int, tau: int) -> tuple | None:
    """Check the padding certificate on the window [start, start+tau]:
    the pads of the window when it passes, None when it fails.

    ``step(k)`` is the step table's entry of state k -- its per-measure
    integer masses and its moving words -- and ``form(k)`` the sorted form
    of those words followed by the frozen words, both read up to index
    start + 2*tau.  On success the joint distance data is periodic with
    period tau from index start on.  Neither the masses nor the sorted form
    follow from the word pairing: atoms may trade masses while keeping their
    words, and a moving atom may sit on a frozen word and then pad away.
    The pad test runs before the sorted forms are compared, so a pair that
    fails it builds no sorted form.

    Inserts beyond every first difference keep each pair's first difference
    and the bit there, so they keep the order of the words and every
    separation: the check passes on exactly the windows on which a check of
    every pairwise separation passes.  The pads hold, for each step j of
    the window whose pad test has inserts, its moving words, those of them
    that pad and the least insert.
    """
    pads = []
    for j in range(start, start + tau + 1):
        (masses_a, words_a), (masses_b, words_b) = step(j), step(j + tau)
        # equal per-measure weights also pair the atoms by index
        if masses_a != masses_b:
            return None
        inserts = _pad_inserts(f, words_a, words_b)
        if inserts is None or form(j) != form(j + tau):
            return None
        if inserts:
            # a separation n is a first difference at index n - 1, and the
            # largest separation of the words is their largest gap
            least = min(inserts)
            if max(form(j)[1], default=0) > least:
                return None
            padded = frozenset([a for a, b in zip(words_a, words_b) if a != b])
            pads.append((words_a, padded, least))
    return tuple(pads)


def _evolve_distance_sequence(
    f: PrefixTableMap,
    initial: tuple[AtomicMeasure, ...],
    frozen: tuple[str, ...],
    budget: int,
) -> tuple[tuple[tuple[AtomicMeasure, ...], ...], int, int, str, tuple]:
    """Shared engine: evolve the measures and certify that their joint
    distance data is eventually periodic.

    Returns the certified window -- the states 0 .. preperiod+period-1 --
    with the preperiod, the period, the certificate kind and the pads that
    ``_verify_padded_window`` returned for it, empty for a state cycle.
    Nothing is evaluated on the states: callers map their own value over
    the window.

    The step table holds each state's per-measure integer masses and moving
    words, entered once, when the state is pushed; reading a step not pushed
    yet pushes the orbit up to it.  Each step the loop reaches is keyed on
    its masses and the ones of each moving word.  Padding inserts zeros
    only, so a window check passes at rho only if steps rho and n share
    their key and their sorted form.  A step with a new key is only
    recorded; once a later step shares it, both get their sorted forms, and
    the candidates of step n are the earlier steps of its key and sorted
    form, newest first -- every candidate that can pass, in the order of
    all earlier steps.  State cycles are checked first and build no form.
    """
    states: list[tuple[AtomicMeasure, ...]] = []
    steps: list = []  # (per-measure integer masses, moving words) by state
    forms: dict = {}  # sorted forms by step

    def step(k: int):
        while len(states) <= k:
            st = tuple([pushforward(f, mu) for mu in states[-1]]) if states else initial
            states.append(st)
            steps.append((tuple([(mu.weights, mu.denom) for mu in st]),
                          tuple([p for mu in st for p in mu.support])))
        return steps[k]

    def form(k: int):
        if k not in forms:
            forms[k] = _sorted_form(steps[k][1] + frozen)
        return forms[k]

    exact_seen: dict = {}
    first_seen: dict = {}  # key -> its one step so far, None once a second shares it
    form_seen: dict = {}  # (key, sorted form) -> steps
    for n in range(budget + 1):
        masses, words = step(n)
        rho = exact_seen.setdefault(states[n], n)
        if rho < n:
            return tuple(states[:n]), rho, n - rho, "state-cycle", ()
        key = masses, tuple([w.count("1") for w in words])
        first = first_seen.setdefault(key, n)
        if first == n:
            continue
        if first is not None:
            form_seen[key, form(first)] = [first]
            first_seen[key] = None
        found = form_seen.setdefault((key, form(n)), [])
        for rho in reversed(found):
            tau = n - rho
            if rho + 2 * tau > budget:
                continue
            pads = _verify_padded_window(f, step, form, rho, tau)
            if pads is not None:
                return tuple(states[:n]), rho, tau, "padded-cycle", pads
        found.append(n)
    raise _out_of_budget(budget)


def _out_of_budget(budget: int) -> ResourceBudgetError:
    return ResourceBudgetError(f"no certified eventual periodicity within {budget} steps")


def _solved_window(
    f: PrefixTableMap, mu: AtomicMeasure, nu: AtomicMeasure, nu_moves: bool
) -> DistanceProfile:
    """Profile of d(f~^n mu, nu_n), where nu_n is f~^n nu if ``nu_moves`` and
    nu itself otherwise (nu's words frozen in the engine).

    Each window state is solved by ``prohorov_distance``, so a state that
    recurs across profiles is solved once.
    """
    initial, frozen = ((mu, nu), ()) if nu_moves else ((mu,), nu.support)
    states, rho, tau, kind, _ = _evolve_distance_sequence(f, initial, frozen, DEFAULT_BUDGET)
    values = tuple(prohorov_distance(st[0], st[1] if nu_moves else nu) for st in states)
    return DistanceProfile(values, rho, tau, kind)


@table("orbits", _ORBIT_TABLE_SIZE)
def _own_orbit(f: PrefixTableMap, mu: AtomicMeasure):
    """mu's own certificate (window, rho, tau, kind, pads), or None when the
    engine runs out of budget.  ``pads`` holds (words, padded words, least
    insert) of each step j in [rho, rho + tau] whose pad test has inserts,
    as the engine's window check found them, so it is empty for a state
    cycle."""
    try:
        states, rho, tau, kind, pads = _evolve_distance_sequence(f, (mu,), (), DEFAULT_BUDGET)
    except ResourceBudgetError:
        return None
    return tuple([st[0] for st in states]), rho, tau, kind, pads


def _keeps_window(pads, targets: tuple[str, ...]) -> bool:
    """Part 2 of the target lemma: whether the frozen words ``targets`` keep
    mu's own padded window passing, given the ``pads`` of its record."""
    for words, padded, m in pads:
        for t in targets:
            if t in padded:
                return False
            for w in words + targets:
                if separation(t, w) > m:
                    return False
    return True


# the cycles record of a padded cycle: there is no state cycle to compose
_PADDED = ()


@table("cycles", _CYCLE_TABLE_SIZE)
def _own_cycle(f: PrefixTableMap, mu: AtomicMeasure):
    """The state-cycle certificate of mu's own orbit: its window
    f~^0 mu .. f~^(rho+tau-1) mu, the distance rows of those states, rho and
    tau;
    ``_PADDED`` when the engine certifies a padded cycle instead, and None
    when it runs out of budget."""
    record = _own_orbit(f, mu)
    if record is None:
        return None
    window, rho, tau, kind, _ = record
    if kind != "state-cycle":
        return _PADDED
    return window, tuple([_distance_row(eta) for eta in window]), rho, tau


class _Row(dict):
    """A distance row, which hashes and compares by identity, so it keys
    the entries of other rows."""

    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__


@table("distance_rows", _CYCLE_TABLE_SIZE)
def _distance_row(mu: AtomicMeasure) -> _Row:
    """The distance row of state mu: the exact distance from it to each
    state it was paired with, keyed by that state's row, filled by
    ``distance_profile`` as it asks."""
    return _Row()


def distance_profile(f: PrefixTableMap, mu: AtomicMeasure, nu: AtomicMeasure) -> DistanceProfile:
    """Exact profile of d(f~^n mu, f~^n nu) with certified liminf/limsup.

    When both orbits are state cycles whose pair window fits the budget, the
    window is composed from their records and read off the distance rows of
    mu's states, by the lemma of the module docstring; when either orbit
    runs out of budget, so does the pair; otherwise the joint engine
    certifies the pair."""
    a, b = _own_cycle(f, mu), _own_cycle(f, nu)
    if a is None or b is None:
        raise _out_of_budget(DEFAULT_BUDGET)
    if a is not _PADDED and b is not _PADDED:
        (states_a, rows_a, rho_a, tau_a), (states_b, rows_b, rho_b, tau_b) = a, b
        rho, tau = max(rho_a, rho_b), lcm(tau_a, tau_b)
        if rho + tau <= DEFAULT_BUDGET:
            values = []
            for n in range(rho + tau):
                i, j = _index(rho_a, tau_a, n), _index(rho_b, tau_b, n)
                row, k = rows_a[i], rows_b[j]
                value = row.get(k)
                if value is None:
                    value = row[k] = prohorov_distance(states_a[i], states_b[j])
                values.append(value)
            return DistanceProfile(tuple(values), rho, tau, "state-cycle")
    return _solved_window(f, mu, nu, True)


def orbit_distance_to_target(
    f: PrefixTableMap, mu: AtomicMeasure, target: AtomicMeasure
) -> DistanceProfile:
    """Exact profile of d(f~^n mu, target) against a fixed target measure.

    The window is mu's own certificate whenever the target lemma of the
    module docstring says the target keeps it; otherwise the joint engine
    certifies the orbit with the target's words frozen."""
    record = _own_orbit(f, mu)
    if record is None:
        raise _out_of_budget(DEFAULT_BUDGET)
    window, rho, tau, kind, pads = record
    if not _keeps_window(pads, target.support):
        return _solved_window(f, mu, target, False)
    return DistanceProfile(tuple(prohorov_distance(eta, target) for eta in window),
                           rho, tau, kind)
