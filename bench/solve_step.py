"""Time one exact Prohorov solve of one backend, in this process, on a
fixed seeded set of chain-step problems.

    python3 bench/solve_step.py BACKEND

``BACKEND`` is one of ``measures.BACKENDS``: ``auto``, ``flow``, ``both``
or ``enumeration``.  The problems are the steps (f~(a), b) of the chains of
the ``chains-crosscheck`` workload's shape: the balloon tower of levels
3:2 and 5:2 with counts 2 and 4, level 0, ``PAIRS`` seeded pairs of
4-atom cell measures and, per pair and delta in 3/4, 1/2 and 1/4, the
chain of length k0 + 3 from ``chain_connect_map``.  Each problem is the
integer problem that the solve memo keys on, kept once, and only those
within ``ENUMERATION_LIMIT`` atoms per measure for ``enumeration``.  Every
timed call goes to the solver behind the memo, so each one solves:

- ``cold_s``: the first pass over all problems in this process;
- ``warm_s``: ``REPEATS`` further passes, with their median;
- ``cold_us_per_solve`` and ``warm_us_per_solve``: those per problem.

Prints one JSON line.  Run it in a fresh process for the cold figure, as
``bench/snapshot.py`` does, once per backend.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from cantordyn import tables  # noqa: E402
from cantordyn.dynamics import chain_connect_map, chain_step_count  # noqa: E402
from cantordyn.grids import random_cell_measure  # noqa: E402
from cantordyn.measures import (  # noqa: E402
    BACKENDS, ENUMERATION_LIMIT, _solved_problem, _sorted_form, pushforward)
from cantordyn.towers import make_balloon_tower  # noqa: E402

SEED = 39
PAIRS = 50  # chain pairs; the workload runs 200
DELTAS = (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
EXTRA = 3  # the longest chain is k0 + EXTRA, as in the workload
REPEATS = 9  # warm passes


def problems() -> dict[tuple, int]:
    """The distinct integer problems (mu weights, mu denominator, nu
    weights, nu denominator, gaps) of the seeded chain steps, in the order
    the chains meet them, each with its larger atom count."""
    tower = make_balloon_tower([(3, 2), (5, 2)], [2, 4])
    f, partition = tower.table, tower.levels[0].partition()
    rng = random.Random(SEED)
    seen = {}
    for _ in range(PAIRS):
        mu, nu = random_cell_measure(partition, rng, 4), random_cell_measure(partition, rng, 4)
        for delta in DELTAS:
            chain = chain_connect_map(f, mu, nu, delta, chain_step_count(delta) + EXTRA)
            for a, b in zip(chain.points, chain.points[1:]):
                image = pushforward(f, a)
                _, mu_w, nu_w, gaps = _sorted_form(image, b)
                key = (mu_w, image.denom, nu_w, b.denom, tuple(gaps))
                seen.setdefault(key, max(len(image), len(b)))
    tables.reset()
    return seen


def solve_step(backend: str) -> dict:
    if backend not in BACKENDS:
        raise SystemExit(f"unknown backend {backend!r}; one of {', '.join(BACKENDS)}")
    limit = ENUMERATION_LIMIT if backend == "enumeration" else None
    todo = [key for key, atoms in problems().items() if limit is None or atoms <= limit]
    solve = _solved_problem.__wrapped__  # the solver behind the memo

    def one_pass() -> float:
        start = perf_counter()
        for key in todo:
            solve(*key, backend)
        return perf_counter() - start

    cold = one_pass()
    warm = [one_pass() for _ in range(REPEATS)]
    median = statistics.median(warm)
    return {"backend": backend, "problems": len(todo), "cold_s": cold,
            "warm_median_s": median, "warm_s": warm,
            "cold_us_per_solve": cold / len(todo) * 1e6,
            "warm_us_per_solve": median / len(todo) * 1e6}


if __name__ == "__main__":
    print(json.dumps(solve_step(sys.argv[1])))
