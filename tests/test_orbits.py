"""The orbit engine, distance profiles and the padded-cycle certificate."""

import gc
import random
import weakref
from fractions import Fraction
from itertools import combinations

import pytest

from cantordyn.cantor import _sorted_form, canonical_point, representative, separation
from cantordyn.errors import ResourceBudgetError
from cantordyn import orbits, tables
from cantordyn.grids import PairClass, random_atomic_measure, random_cell_measure, simplex_grid
from cantordyn.maps import PrefixTableMap
from cantordyn.measures import (
    atomic_measure,
    convex_combine,
    dirac,
    prohorov,
    prohorov_distance,
    pushforward,
    pushforward_iter,
)
from cantordyn.orbits import (
    DistanceProfile,
    distance_profile,
    orbit_distance_to_target,
)
from cantordyn.towers import make_balloon_tower, make_dumbbell_tower

IDENTITY = PrefixTableMap((("", ""),))
SWAP = PrefixTableMap((("0", "1"), ("1", "0")))


def li_yorke_rule(liminf: Fraction, limsup: Fraction) -> PairClass:
    """The class of a pair whose distances have this liminf and limsup: the
    per-pair oracle of the grid scan's counts."""
    if limsup == 0:
        return PairClass.ASYMPTOTIC
    if liminf > 0:
        return PairClass.SEPARATED_BELOW
    return PairClass.LI_YORKE_PAIR


def test_state_cycle_examples():
    for f, point, expected in ((IDENTITY, "01", (0, 1)), (SWAP, "", (0, 2))):
        _, rho, tau, kind, _ = orbits._evolve_distance_sequence(
            f, (dirac(point),), (), orbits.DEFAULT_BUDGET
        )
        assert (kind, rho, tau) == ("state-cycle", *expected)


def test_state_cycle_balloon_path_dirac():
    tower = make_balloon_tower([(5, 3)], [1])
    comp = tower.levels[0].components[0]
    m = len(comp.loop)
    for j, cell in enumerate(comp.path, start=1):
        _, rho, tau, kind, _ = orbits._evolve_distance_sequence(
            tower.table, (dirac(representative(cell)),), (), orbits.DEFAULT_BUDGET
        )
        assert kind == "state-cycle"
        assert rho == m - j + 1  # steps to reach the loop
        assert m % tau == 0


def test_engine_budget_covers_the_padded_window():
    # a bar orbit never literally repeats under a homeomorphism; its padded
    # cycle (1, 2) needs the states up to index 1 + 2 * 2 = 5
    tower = make_dumbbell_tower((4, 2), 1, bar_length=1)
    bar = (dirac(representative(tower.levels[0].components[0].bar[0])),)
    _, rho, tau, kind, _ = orbits._evolve_distance_sequence(tower.table, bar, (), 5)
    assert (kind, rho, tau) == ("padded-cycle", 1, 2)
    with pytest.raises(ResourceBudgetError):
        orbits._evolve_distance_sequence(tower.table, bar, (), 4)


def test_distance_profile_examples():
    mu = dirac("0")
    prof = distance_profile(SWAP, mu, mu)
    assert prof.liminf == prof.limsup == 0
    prof = distance_profile(SWAP, dirac(""), dirac("1"))
    assert prof.liminf == prof.limsup == 1
    assert li_yorke_rule(prof.liminf, prof.limsup) is PairClass.SEPARATED_BELOW


def test_profile_lookup_and_extremes_against_unrolled_orbit():
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    h = tower.table
    comp0, comp1 = tower.levels[0].components
    mu = dirac(representative(comp0.bar[0]))
    nu = convex_combine(
        [
            (Fraction(1, 2), dirac(representative(comp1.left[0]))),
            (Fraction(1, 2), dirac(representative(comp0.right[0]))),
        ]
    )
    prof = distance_profile(h, mu, nu)
    # brute-force unroll well past preperiod + 2 periods
    horizon = prof.preperiod + 3 * prof.period + 2
    a, b = mu, nu
    values = []
    for _ in range(horizon):
        values.append(prohorov_distance(a, b))
        a, b = pushforward(h, a), pushforward(h, b)
    assert values[: len(prof.values)] == list(prof.values)
    assert all(prof.value_at(n) == values[n] for n in range(horizon))
    tail = values[prof.preperiod:]
    assert min(tail) == prof.liminf
    assert max(tail) == prof.limsup


def test_classify_thresholds():
    prof = DistanceProfile((Fraction(0),), 0, 1, "state-cycle")
    assert li_yorke_rule(prof.liminf, prof.limsup) is PairClass.ASYMPTOTIC
    prof = DistanceProfile((Fraction(1, 2), Fraction(1)), 0, 2, "state-cycle")
    assert li_yorke_rule(prof.liminf, prof.limsup) is PairClass.SEPARATED_BELOW
    prof = DistanceProfile((Fraction(0), Fraction(1, 2)), 0, 2, "state-cycle")
    assert li_yorke_rule(prof.liminf, prof.limsup) is PairClass.LI_YORKE_PAIR


def test_padded_cycle_profile_on_absorbing_orbit():
    tower = make_dumbbell_tower((4, 2), 1, bar_length=1)
    comp = tower.levels[0].components[0]
    mu = dirac(representative(comp.bar[0]))
    nu = dirac(representative(comp.left[0]))
    prof = distance_profile(tower.table, mu, nu)
    assert prof.certificate == "padded-cycle"
    assert li_yorke_rule(prof.liminf, prof.limsup) is not PairClass.LI_YORKE_PAIR


def test_padded_cycle_rejects_a_target_the_orbit_passes_through():
    # the orbit meets the frozen target at n = 2 and then pads away from it;
    # only the joint-record comparison keeps that window from closing at (1, 2)
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    x = representative(tower.levels[0].components[0].bar[0])
    mu, target = dirac(x), dirac(tower.table.apply(tower.table.apply(x)))
    prof = orbit_distance_to_target(tower.table, mu, target)
    assert (prof.certificate, prof.preperiod, prof.period) == ("padded-cycle", 3, 2)
    for n in range(12):
        assert prof.value_at(n) == prohorov_distance(mu, target), n
        mu = pushforward(tower.table, mu)
    assert prof.value_at(2) == 0 < prof.value_at(4)


def _step_table(states):
    """``step`` and ``form`` of given states, as the engine reads them: per
    state, the per-measure integer masses and the words, and the sorted
    form of the words."""
    steps = [(tuple((mu.weights, mu.denom) for mu in st), tuple(p for mu in st for p in mu.support))
             for st in states]
    return steps.__getitem__, lambda k: _sorted_form(steps[k][1])


def test_padded_cycle_rejects_atoms_that_trade_masses():
    # the words and their sorted form (order, gaps) repeat after one step,
    # the masses do not
    mu = atomic_measure({"": Fraction(1, 3), "1": Fraction(2, 3)})
    states = [(mu,), (pushforward(SWAP, mu),), (mu,)]
    step, form = _step_table(states)
    assert step(0)[1] == step(1)[1] == ("", "1")
    assert form(0) == form(1) == ((0, 1), (1,))
    assert step(0)[0] != step(1)[0]
    assert orbits._verify_padded_window(SWAP, step, form, 0, 1) is None
    assert prohorov_distance(states[0][0], dirac("")) != prohorov_distance(
        states[1][0], dirac("")
    )


def test_padded_cycle_insert_bound_at_its_boundary():
    # "011" pads one zero in at index 2, then at index 3; every separation of
    # the moving atom is 1, and the only other separation is that of "1" and
    # the third word: the words stay in their order, and that separation is
    # the largest gap.  This pins the current bound; it does not prove it
    # tight.
    def window(third):
        words = [("011", "1", third), ("0101", "1", third), ("01001", "1", third)]
        states = [(atomic_measure({w: Fraction(1, 3) for w in ws}),) for ws in words]
        step, form = _step_table(states)
        assert step(0)[0] == step(1)[0] == step(2)[0]
        assert form(0) == form(1) == form(2)
        order, gaps = form(0)
        assert order == (0, 1, 2) and gaps[0] == 1 == separation("011", "1")
        assert max(gaps) == max(separation(u, v) for u in words[0] for v in words[0])
        return step, form, max(gaps)

    # largest separation == first insert index: accepted
    step, form, largest = window("11")
    assert largest == 2
    assert orbits._verify_padded_window(SWAP, step, form, 0, 1) is not None
    # largest separation == first insert index + 1: rejected
    step, form, largest = window("101")
    assert largest == 3
    assert orbits._verify_padded_window(SWAP, step, form, 0, 1) is None


def _loop_insert(wa, wb):
    """The insert position of ``wb`` as ``wa`` with one zero-run extended,
    found by comparing characters; None when ``wb`` is not that."""
    g = len(wb) - len(wa)
    if g <= 0:
        return None
    c = 0
    while c < len(wa) and wa[c] == wb[c]:
        c += 1
    if wb[c: c + g] == "0" * g and wb[c + g:] == wa[c:]:
        return c
    return None


def test_pad_test_takes_its_insert_position_from_the_separation():
    # every canonical word of at most 6 bits with 1-3 zeros inserted at
    # every position before its last bit, and every other pair of those
    # words: wherever the pad relation holds, the separation less one is the
    # position the character loop finds, and the pad test of a map whose
    # rule domain is empty returns exactly that position, and None wherever
    # the relation fails
    words = sorted({canonical_point(format(x, f"0{n}b")) for n in range(7) for x in range(2 ** n)})
    inserted = {(wa, wa[:c] + "0" * g + wa[c:])
                for wa in words for c in range(len(wa)) for g in (1, 2, 3)}
    padded = set()
    for wa, wb in inserted | {(wa, wb) for wa in words for wb in words if wb != wa}:
        found = _loop_insert(wa, wb)
        if found is None:
            assert orbits._pad_inserts(IDENTITY, (wa,), (wb,)) is None, (wa, wb)
            continue
        padded.add((wa, wb))
        assert separation(wa, wb) - 1 == found, (wa, wb)
        # padding inserts zeros only: the engine keys steps on these ones
        assert wa.count("1") == wb.count("1"), (wa, wb)
        assert orbits._pad_inserts(IDENTITY, (wa,), (wb,)) == [found], (wa, wb)
    assert inserted <= padded


def test_profiles_solve_only_the_certified_window(monkeypatch):
    # prohorov_distance calls are counted, and a kept distance row answers
    # a call: start from empty tables
    tables.reset()
    calls = []
    solve = orbits.prohorov_distance

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(orbits, "prohorov_distance", counting)
    dumbbell = make_dumbbell_tower((4, 2), 2, bar_length=1)
    c0 = dumbbell.levels[0].components[0]
    prof = orbit_distance_to_target(
        dumbbell.table,
        dirac(representative(c0.bar[0])),
        dirac(representative(c0.left[0])),
    )
    assert (prof.certificate, prof.preperiod, prof.period) == ("padded-cycle", 1, 2)
    assert len(prof.values) == prof.preperiod + prof.period
    assert len(calls) == 3  # not the states pushed only to check the window

    calls.clear()
    balloon = make_balloon_tower([(3, 2), (5, 2)], [1, 2])
    cells = balloon.levels[0].partition().cells
    prof = distance_profile(
        balloon.table, dirac(representative(cells[0])), dirac(representative(cells[2]))
    )
    assert (prof.certificate, prof.preperiod, prof.period) == ("state-cycle", 2, 2)
    assert len(prof.values) == prof.preperiod + prof.period
    assert len(calls) == 4  # not the state that closes the cycle


def test_state_cycles_build_no_joint_record(monkeypatch):
    # the engine's sorted forms: none for a state cycle, some for a padded one
    calls = []
    build = orbits._sorted_form

    def counting(words):
        calls.append(words)
        return build(words)

    monkeypatch.setattr(orbits, "_sorted_form", counting)
    balloon = make_balloon_tower([(3, 2), (5, 2)], [1, 2])
    cells = balloon.levels[0].partition().cells
    prof = distance_profile(
        balloon.table, dirac(representative(cells[0])), dirac(representative(cells[2]))
    )
    assert prof.certificate == "state-cycle"
    assert calls == []
    dumbbell = make_dumbbell_tower((4, 2), 2, bar_length=1)
    c0 = dumbbell.levels[0].components[0]
    prof = distance_profile(
        dumbbell.table, dirac(representative(c0.bar[0])), dirac(representative(c0.left[0]))
    )
    assert prof.certificate == "padded-cycle"
    assert calls


def test_pad_tests_need_a_shared_key_and_sorted_form(monkeypatch):
    # a Dirac on the path of a balloon component: every step has the same
    # masses and no pair pads, so the engine tests every candidate it finds
    # and the state cycle closes.  A pair is pad-tested exactly when its two
    # steps share their masses, the ones of each word and their sorted form,
    # once; a step whose key no other step shares builds no sorted form.
    tests, forms = [], []
    pad, build = orbits._pad_inserts, orbits._sorted_form

    def counting_pad(f, words_a, words_b):
        result = pad(f, words_a, words_b)
        tests.append((words_a, words_b, result))
        return result

    monkeypatch.setattr(orbits, "_pad_inserts", counting_pad)
    monkeypatch.setattr(orbits, "_sorted_form", lambda words: forms.append(words) or build(words))
    tower = make_balloon_tower([(5, 3)], [1])
    comp = tower.levels[0].components[0]
    states, rho, tau, kind, _ = orbits._evolve_distance_sequence(
        tower.table, (dirac(representative(comp.path[0])),), (), orbits.DEFAULT_BUDGET
    )
    assert (kind, rho, tau) == ("state-cycle", 6, 6)
    step_of = {st[0].support: k for k, st in enumerate(states)}
    assert len(step_of) == rho + tau
    step, form = _step_table(states)
    key = [(step(k)[0], tuple(w.count("1") for w in step(k)[1])) for k in range(rho + tau)]
    sharing = [(r, n) for n in range(1, rho + tau) for r in range(n)
               if key[r] == key[n] and form(r) == form(n)]
    pairs = [(step_of[a], step_of[b]) for a, b, _ in tests]
    assert sorted(pairs) == sorted(sharing)
    assert 0 < len(sharing) < (rho + tau) * (rho + tau - 1) // 2
    assert all(result is None for *_, result in tests)
    shared = {k for k in range(rho + tau) if key.count(key[k]) > 1}
    assert len(shared) < rho + tau
    assert sorted(step_of[words] for words in forms) == sorted(shared)


# -- the eager engine that built a joint record for every step, kept as an
# oracle: it keys each step on its full (masses, matrix) signature, built
# from a separation matrix of all words, and runs its own pad test, so it
# shares no record or check with the engine


def _eager_record(state, frozen):
    """(per-measure masses, words, symmetric separation matrix) of a state."""
    words = [p for mu in state for p in mu.support] + list(frozen)
    matrix = tuple(tuple(separation(u, v) for v in words) for u in words)
    return tuple((mu.weights, mu.denom) for mu in state), words, matrix


def _eager_pad_descriptor(w_old, w_new):
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


def _eager_verify(f, record, n_frozen, start, tau):
    for j in range(start, start + tau + 1):
        masses_a, words_a, matrix_a = record(j)
        masses_b, words_b, matrix_b = record(j + tau)
        if masses_a != masses_b:
            return False
        inserts = []
        n_moving = len(words_a) - n_frozen
        for i, (wa, wb) in enumerate(zip(words_a, words_b)):
            if i >= n_moving:
                if wa != wb:
                    return False
                continue
            desc = _eager_pad_descriptor(wa, wb)
            if desc is None:
                return False
            c, g = desc
            if g > 0:
                if c < len(f._match(wa)[0]):
                    return False
                inserts.append(c)
        if matrix_a != matrix_b:
            return False
        if inserts and max(map(max, matrix_a)) > min(inserts):
            return False
    return True


def _eager_engine(f, initial, frozen, budget):
    states, records = [initial], []
    exact_seen, sig_seen = {initial: 0}, {}

    def ensure(k):
        while len(states) <= k:
            states.append(tuple(pushforward(f, mu) for mu in states[-1]))

    def record(k):
        while len(records) <= k:
            records.append(_eager_record(states[len(records)], frozen))
        return records[k]

    def signature(k):
        masses, _, matrix = record(k)
        return masses, matrix

    sig_seen[signature(0)] = [0]
    for n in range(1, budget + 1):
        ensure(n)
        rho = exact_seen.setdefault(states[n], n)
        if rho < n:
            return tuple(states[:n]), rho, n - rho, "state-cycle"
        sig = signature(n)
        for rho in reversed(sig_seen.get(sig, ())):
            tau = n - rho
            if rho + 2 * tau > budget:
                continue
            ensure(rho + 2 * tau)
            if _eager_verify(f, record, len(frozen), rho, tau):
                return tuple(states[:n]), rho, tau, "padded-cycle"
        sig_seen.setdefault(sig, []).append(n)
    raise ResourceBudgetError(f"no certified eventual periodicity within {budget} steps")


def _outcome(engine, *args):
    try:
        return engine(*args)
    except ResourceBudgetError as exc:
        return str(exc)


def _engine(*args):
    """The engine's certificate without its pads, as the eager engine gives it."""
    return orbits._evolve_distance_sequence(*args)[:4]


def test_engine_matches_the_eager_engine():
    # equal (states, preperiod, period, kind), or the same budget error, on
    # random measures of balloon and dumbbell towers, both directions of the
    # homeomorphism, moving pairs and frozen targets
    rng = random.Random(13)
    balloon = make_balloon_tower([(3, 2), (5, 2)], [2, 4])
    dumbbell = make_dumbbell_tower((4, 2), 2, bar_length=1)
    kinds = set()
    for f, level in ((balloon.table, balloon.levels[1]), (dumbbell.table, dumbbell.levels[0]),
                     (dumbbell.table.invert(), dumbbell.levels[0])):
        partition = level.partition()
        for i in range(24):
            if i % 3:
                mu, nu = (random_cell_measure(partition, rng, rng.randint(1, 4)) for _ in "ab")
            else:
                mu, nu = (random_atomic_measure(rng, 3, 5) for _ in "ab")
            for initial, frozen in (((mu, nu), ()), ((mu,), nu.support)):
                for budget in (6, orbits.DEFAULT_BUDGET):
                    args = (f, initial, frozen, budget)
                    got = _outcome(_engine, *args)
                    assert got == _outcome(_eager_engine, *args)
                    kinds.add("budget" if isinstance(got, str) else got[3])
    assert kinds == {"state-cycle", "padded-cycle", "budget"}
    # 3-atom measures on the (3:2, 5:2) balloon tower at the real budget:
    # some orbits pad without settling and run the budget out
    f = make_balloon_tower([(3, 2), (5, 2)], [1, 2]).table
    outcomes = []
    for _ in range(12):
        mu, nu = (random_atomic_measure(rng, 3, 6) for _ in "ab")
        for initial, frozen in (((mu, nu), ()), ((mu,), nu.support)):
            args = (f, initial, frozen, orbits.DEFAULT_BUDGET)
            got = _outcome(_engine, *args)
            assert got == _outcome(_eager_engine, *args)
            outcomes.append("budget" if isinstance(got, str) else got[3])
    assert outcomes.count("budget") >= 8, outcomes


def _eager_profile(f, mu, nu):
    states, rho, tau, kind = _eager_engine(f, (mu, nu), (), orbits.DEFAULT_BUDGET)
    return DistanceProfile(tuple(prohorov(a, b).value for a, b in states), rho, tau, kind)


def _composition_cases():
    """(map, pairs) on which the pair profile is composed from two state
    cycles, or falls back to the joint engine: padded cycles and budget
    errors."""
    balloon = make_balloon_tower([(3, 2), (5, 2)], [1, 2])
    dumbbell = make_dumbbell_tower((4, 2), 2, bar_length=1)
    for f, level in ((balloon.table, balloon.levels[1]), (dumbbell.table, dumbbell.levels[0])):
        grid = simplex_grid(level.partition(), 2)
        yield f, list(combinations(grid, 2))
    rng = random.Random(2024)
    randoms = [random_atomic_measure(rng, 3, 6) for _ in range(24)]
    yield balloon.table, list(zip(randoms[::2], randoms[1::2]))
    # a 3-cycle and a 2-cycle of cells, each entered from a transient cell:
    # preperiods 0 to 2 and periods 1 to 3, so the pairs' periods are lcms
    cycles = PrefixTableMap((("000", "001"), ("001", "010"), ("010", "000"), ("011", "100"),
                             ("100", "011"), ("101", "000"), ("110", "011"), ("111", "110")))
    cells = [format(i, "03b") for i in range(8)]
    measures = [dirac(c) for c in cells] + [
        atomic_measure({a: Fraction(1, 2), b: Fraction(1, 2)}) for a, b in combinations(cells, 2)]
    yield cycles, list(combinations(measures, 2))


def _composition_path(f, mu, nu):
    cycles = orbits._own_cycle(f, mu), orbits._own_cycle(f, nu)
    if None in cycles:
        return "own budget"
    return "joint" if orbits._PADDED in cycles else "composed"


def test_composed_profiles_match_the_joint_and_eager_engines():
    # distance_profile with its records and distance rows kept warm across
    # every pair of a case, and then once more over the pairs in reverse
    # order, when every row it reads is warm, against the joint engine on
    # empty tables and the eager engine: the same DistanceProfile or the
    # same budget error text
    paths, kinds, shapes = set(), set(), set()
    for f, pairs in _composition_cases():
        joint = []
        for mu, nu in pairs:
            tables.reset()
            joint.append(_outcome(orbits._solved_window, f, mu, nu, True))
        eager = [_outcome(_eager_profile, f, mu, nu) for mu, nu in pairs]
        tables.reset()
        for (mu, nu), want, oracle in zip(pairs, joint, eager):
            got = _outcome(distance_profile, f, mu, nu)
            assert got == want == oracle, (mu, nu)
            if isinstance(got, str):
                kinds.add("budget")
            else:
                kinds.add(got.certificate)
                shapes.add((got.preperiod, got.period))
            paths.add(_composition_path(f, mu, nu))
        for (mu, nu), want in reversed(list(zip(pairs, joint))):
            assert _outcome(distance_profile, f, mu, nu) == want, (mu, nu)
        if "composed" in paths:
            assert tables.counts()["distance_row_hits"] > 0
    assert kinds == {"state-cycle", "padded-cycle", "budget"}
    assert paths == {"own budget", "joint", "composed"}
    assert {(1, 6), (2, 6)} <= shapes


def test_profiles_solve_each_state_pair_once(monkeypatch):
    # every pair of a balloon grid, whose orbits are all state cycles: one
    # prohorov_distance call per distinct (state of mu, state of nu) that
    # some profile's window holds, however many windows hold it
    tower = make_balloon_tower([(3, 2), (5, 2)], [1, 2])
    f, grid = tower.table, simplex_grid(tower.levels[1].partition(), 1)
    calls, solve = [], orbits.prohorov_distance
    monkeypatch.setattr(orbits, "prohorov_distance",
                        lambda mu, nu: calls.append((mu, nu)) or solve(mu, nu))
    tables.reset()
    windows = set()
    for mu, nu in combinations(grid, 2):
        prof = distance_profile(f, mu, nu)
        assert prof.certificate == "state-cycle"
        assert _composition_path(f, mu, nu) == "composed"
        windows.update((pushforward_iter(f, mu, n), pushforward_iter(f, nu, n))
                       for n in range(len(prof.values)))
    assert len(calls) == len(set(calls)) == len(windows)
    assert set(calls) == windows
    assert len(windows) < sum(len(distance_profile(f, mu, nu).values)
                              for mu, nu in combinations(grid, 2))


def test_distance_rows_are_keyed_by_identity():
    # two empty rows are two keys, so a row entry answers for one state only
    tables.reset()
    first, second = orbits._distance_row(dirac("0")), orbits._distance_row(dirac("1"))
    assert not first and not second and first != second
    assert len({first: 0, second: 1}) == 2
    # evict every orbit record but keep the rows: the profiles of other
    # measures read the kept rows and still give the joint engine's profiles
    tower = make_balloon_tower([(3, 2), (5, 2)], [1, 2])
    f, grid = tower.table, simplex_grid(tower.levels[1].partition(), 1)
    tables.reset()
    for nu in grid[1:]:
        distance_profile(f, grid[0], nu)
    orbits._own_cycle.cache_clear()
    others = [(f, mu, nu) for mu, nu in combinations(grid[1:], 2)]
    for case in others:
        assert distance_profile(*case) == orbits._solved_window(*case, True), case
    assert tables.counts()["distance_row_hits"] > 0
    # a row lives as long as the tables hold it, and no longer
    kept = weakref.ref(orbits._distance_row(grid[0]))
    assert kept() is not None
    tables.reset()
    gc.collect()
    assert kept() is None


@pytest.mark.parametrize("kind", ["padded-cycle", "budget"])
def test_an_orbit_that_is_no_state_cycle_is_certified_once(kind, monkeypatch):
    # the first seeded measure whose own orbit pads, or runs the budget out,
    # paired three times with every measure of a grid: one record per
    # measure, read on every other call.  The record tells the two apart:
    # a padded orbit's pairs go to the joint engine, and an exhausted one's
    # raise the joint engine's error text at once, without running it
    tower = make_balloon_tower([(3, 2), (5, 2)], [1, 2])
    f, grid = tower.table, simplex_grid(tower.levels[1].partition(), 1)
    rng = random.Random(2024)
    for _ in range(24):
        mu = random_atomic_measure(rng, 3, 6)
        own = _outcome(orbits._evolve_distance_sequence, f, (mu,), (), orbits.DEFAULT_BUDGET)
        if ("budget" if isinstance(own, str) else own[3]) == kind:
            break
    else:
        pytest.fail(f"no seeded measure whose orbit ends in {kind}")
    solved = orbits._solved_window
    wants = [_outcome(solved, f, mu, nu, True) for nu in grid]
    joint = []
    monkeypatch.setattr(orbits, "_solved_window",
                        lambda *args: joint.append(args) or solved(*args))
    tables.reset()
    for _ in range(3):
        assert [_outcome(distance_profile, f, mu, nu) for nu in grid] == wants
    counts = tables.counts()
    assert counts["cycles"] == len(grid) + 1
    assert counts["cycle_hits"] == 2 * 3 * len(grid) - counts["cycles"]
    if kind == "budget":
        assert orbits._own_cycle(f, mu) is None
        assert joint == [] and all(isinstance(want, str) for want in wants)
    else:
        assert orbits._own_cycle(f, mu) is orbits._PADDED
        assert len(joint) == 3 * len(grid)


def _eager_target(f, mu, target):
    states, rho, tau, kind = _eager_engine(f, (mu,), target.support, orbits.DEFAULT_BUDGET)
    return DistanceProfile(tuple(prohorov(st[0], target).value for st in states), rho, tau, kind)


# (mu, target): mu's own cycle under the dumbbell map is (1, 2), with least
# inserts 4, 4 and 5; the target's atoms are 6 apart, so the joint cycle is (5, 2)
PAIR_CASE = (atomic_measure({"01": Fraction(2, 3), "101": Fraction(1, 3)}),
             atomic_measure({"11": Fraction(1, 2), "110001": Fraction(1, 2)}))


def _target_cases():
    """(map, [(mu, target)]) for the target path, under both directions of
    the homeomorphism: random measures and targets, a Dirac on a word of
    mu's orbit, and two-atom targets t, t 0^k 1 with k up to 6, whose
    separation is near the least insert, so that the clause on two target
    words decides some of them."""
    balloons = [make_balloon_tower([(3, 2), (5, 2)], counts) for counts in ([2, 4], [1, 2])]
    dumbbell = make_dumbbell_tower((4, 2), 2, bar_length=1)
    rng = random.Random(7)
    for f, level in ((balloons[0].table, balloons[0].levels[1]),
                     (balloons[1].table, balloons[1].levels[1]),
                     (dumbbell.table, dumbbell.levels[0]),
                     (dumbbell.table.invert(), dumbbell.levels[0])):
        partition = level.partition()
        cases = []
        for i in range(16):
            if i % 2:
                mu = random_cell_measure(partition, rng, rng.randint(1, 4))
            else:
                mu = random_atomic_measure(rng, 3, 5)
            word = rng.choice(pushforward_iter(f, mu, rng.randint(0, 6)).support)
            t = rng.choice((word, rng.choice(mu.support)))
            twin = t + "0" * rng.randint(0, 6) + "1"
            pair = atomic_measure({t: Fraction(1, 2), twin: Fraction(1, 2)})
            for target in (random_atomic_measure(rng, 2, 5),
                           random_cell_measure(partition, rng, rng.randint(1, 3)),
                           dirac(word), pair):
                cases.append((mu, target))
        yield f, cases
    yield dumbbell.table, [PAIR_CASE]


def _target_path(f, mu, target, outcome):
    record = orbits._own_orbit(f, mu)
    if record is None:
        return "own budget"
    if record[3] == "state-cycle":
        return "state-cycle record"
    if orbits._keeps_window(record[4], target.support):
        return "padded record"
    return "budget fallback" if isinstance(outcome, str) else "padded fallback"


def test_target_profiles_match_the_joint_and_eager_engines():
    # orbit_distance_to_target with its records kept warm across a case,
    # against the joint engine on empty tables and the eager engine: the
    # same DistanceProfile or the same budget error text, on every path
    paths = set()
    for f, cases in _target_cases():
        joint = []
        for mu, target in cases:
            tables.reset()
            joint.append(_outcome(orbits._solved_window, f, mu, target, False))
        eager = [_outcome(_eager_target, f, mu, target) for mu, target in cases]
        tables.reset()
        for (mu, target), want, oracle in zip(cases, joint, eager):
            got = _outcome(orbit_distance_to_target, f, mu, target)
            assert got == want == oracle, (mu, target)
            paths.add(_target_path(f, mu, target, want))
    assert paths == {"state-cycle record", "padded record", "padded fallback",
                     "budget fallback", "own budget"}


def test_target_atoms_closer_than_the_least_insert_fall_back():
    # each target atom alone keeps mu's own window (1, 2); the two together
    # are closer than the least insert, so the joint engine certifies (5, 2)
    f = make_dumbbell_tower((4, 2), 2, bar_length=1).table
    mu, target = PAIR_CASE
    _, rho, tau, kind, pads = orbits._own_orbit(f, mu)
    assert (rho, tau, kind) == (1, 2, "padded-cycle")
    assert [m for _, _, m in pads] == [4, 4, 5]
    assert all(orbits._keeps_window(pads, (t,)) for t in target.support)
    assert separation(*target.support) == 6
    prof = orbit_distance_to_target(f, mu, target)
    assert (prof.preperiod, prof.period, prof.certificate) == (5, 2, "padded-cycle")
    assert prof == orbits._solved_window(f, mu, target, False)


def test_orbit_records_keep_the_pads_the_engine_checked():
    # the pads of each padded own orbit of the target cases, against a
    # recount: the orbit pushed to rho + 2 tau, and each step j in
    # [rho, rho + tau] pad-tested against step j + tau again
    padded = 0
    for f, cases in _target_cases():
        for mu in dict.fromkeys(mu for mu, _ in cases):
            record = orbits._own_orbit(f, mu)
            if record is None or record[3] != "padded-cycle":
                continue
            _, rho, tau, _, pads = record
            orbit = [pushforward_iter(f, mu, n).support for n in range(rho + 2 * tau + 1)]
            want = []
            for words, later in zip(orbit[rho:rho + tau + 1], orbit[rho + tau:]):
                inserts = orbits._pad_inserts(f, words, later)
                if inserts:
                    padded_words = frozenset(a for a, b in zip(words, later) if a != b)
                    want.append((words, padded_words, min(inserts)))
            assert pads == tuple(want), mu
            padded += 1
    assert padded >= 4


def test_an_exhausted_own_orbit_raises_without_the_joint_engine(monkeypatch):
    # a target of an own orbit that runs the budget out raises the joint
    # engine's text after one engine run, the own one
    cases = [(f, mu, target) for f, pairs in _target_cases() for mu, target in pairs
             if isinstance(_outcome(orbits._evolve_distance_sequence, f, (mu,), (),
                                    orbits.DEFAULT_BUDGET), str)]
    wants = [_outcome(orbits._solved_window, *case, False) for case in cases]
    runs, engine = [], orbits._evolve_distance_sequence

    def counted(*args):
        runs.append(args)
        return engine(*args)

    monkeypatch.setattr(orbits, "_evolve_distance_sequence", counted)
    for (f, mu, target), want in zip(cases, wants):
        tables.reset()
        runs.clear()
        assert _outcome(orbit_distance_to_target, f, mu, target) == want
        assert [args[1:3] for args in runs] == [((mu,), ())]
    assert len(cases) >= 4 and all(isinstance(want, str) for want in wants)


def test_pad_test_rejects_an_insert_inside_the_rule_domain():
    # "01" -> "001" extends a zero-run inside the domain "01" that fires on
    # "01", so no window opens at step 0; "001" -> "0001" pads beyond "00"
    f = PrefixTableMap((("00", "000"), ("01", "001"), ("1", "1")))
    args = (f, (dirac("01"), dirac("1")), (), orbits.DEFAULT_BUDGET)
    got = _engine(*args)
    assert got[1:] == (1, 1, "padded-cycle")
    assert got == _eager_engine(*args)


def _counting_rules(prefix, bits, last):
    """prefix + x -> prefix + (x + 1) over the bits-wide x; the last x -> ``last``."""
    words = [prefix + format(x, f"0{bits}b") for x in range(2 ** bits)]
    return list(zip(words, words[1:] + [last]))


@pytest.mark.parametrize("rules, start, other, window", [
    # 32 counting steps, then a zero-run that grows by one each step
    ([("1", "1"), ("00", "000")] + _counting_rules("01", 5, "001"), "01", "1", (32, 1)),
    # each 32-step count inserts one zero past the counter: the cycle opens
    # at a step recorded only when the lookup by record took over
    ([("0", "0")] + _counting_rules("1", 5, "1000000"), "1000001", "01", (0, 32)),
])
def test_orbits_past_the_pad_scan_certify_through_the_matrix_lookup(rules, start, other, window):
    f = PrefixTableMap(tuple(rules))
    for initial, frozen in (((dirac(start), dirac(other)), ()), ((dirac(start),), (other,))):
        args = (f, initial, frozen, orbits.DEFAULT_BUDGET)
        got = _engine(*args)
        assert got[1:] == (*window, "padded-cycle")
        # a literal, not an engine constant: the cycle closes more than 16
        # steps of equal masses in, so an engine that searched only a
        # bounded number of earlier steps, such as 16, would miss it
        assert sum(window) > 16
        assert got == _eager_engine(*args)


def _on_cells(masses):
    return atomic_measure({representative(c): Fraction(m) for c, m in masses.items()})


@pytest.mark.parametrize("family", ["balloon", "dumbbell"])
def test_profiles_agree_with_unrolled_flow_solves(family):
    # the profiles solve the engine's window states with the closed form; a
    # flow solve of each unrolled state is the oracle.  Two atoms on every
    # side and values that change along the orbit, so a swapped pair or a
    # shifted window gives other values.
    if family == "balloon":
        f = make_balloon_tower([(3, 2), (5, 2)], [1, 2]).table
        mu = _on_cells({"01": "1/4", "10": "3/4"})
        nu = _on_cells({"00": "1/2", "01": "1/2"})
        target = _on_cells({"00": "4/5", "11": "1/5"})
        kind = "state-cycle"
    else:
        f = make_dumbbell_tower((4, 2), 2, bar_length=1).table
        mu = _on_cells({"101": "2/3", "111": "1/3"})
        nu = _on_cells({"010": "3/7", "111": "4/7"})
        target = _on_cells({"1001": "2/3", "110": "1/3"})
        kind = "padded-cycle"
    for prof, second in (
        (distance_profile(f, mu, nu), lambda n: pushforward_iter(f, nu, n)),
        (orbit_distance_to_target(f, mu, target), lambda n: target),
    ):
        assert prof.certificate == kind
        assert len(set(prof.values)) > 1
        for n in range(prof.preperiod + 3 * prof.period + 2):
            expected = prohorov(pushforward_iter(f, mu, n), second(n), backend="flow").value
            assert prof.value_at(n) == expected, n


def test_orbit_distance_to_target_infimum():
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    comp0, comp1 = tower.levels[0].components
    eta = dirac(representative(comp0.left[0]))
    target = dirac(representative(comp0.left[1]))
    prof = orbit_distance_to_target(tower.table, eta, target)
    assert prof.infimum() == 0  # the orbit passes through the target
    far = dirac(representative(comp1.left[0]))
    prof = orbit_distance_to_target(tower.table, eta, far)
    assert prof.infimum() == 1  # never leaves its own component
