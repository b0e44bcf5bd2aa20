"""Time one all-pairs scan time step, ``rank_matrix_at``, in this process.

    python3 bench/scan_step.py RESOLUTION

Builds the simplex grid of the given resolution on level 0 of the dumbbell
tower of the ``liyorke-grid`` workload (levels 4:2, count 2, bar 1; 10
cells, so resolution 4 gives 715 measures and 5 gives 2,002), then times
the step at the family's preperiod, the first one ``li_yorke_scan`` takes:

- ``cold_s``: its first call in this process, the one a scan pays;
- ``warm_s``: ``REPEATS`` further calls of the same step, with their median;
- ``peak_bytes``: the tracemalloc peak of one more call above what was
  allocated before it, result included, also per matrix entry.

Prints one JSON line.  Run it in a fresh process for the cold figure, as
``bench/snapshot.py`` does.
"""

from __future__ import annotations

import json
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from cantordyn.grids import CommonSupportScanner, simplex_grid, track_representatives  # noqa: E402
from cantordyn.towers import make_dumbbell_tower  # noqa: E402

REPEATS = 9  # warm calls of the step


def scan_step(resolution: int) -> dict:
    tower = make_dumbbell_tower((4, 2), 2, bar_length=1)
    partition = tower.levels[0].partition()
    family = track_representatives(tower.table, partition)
    grid = simplex_grid(partition, resolution)
    scanner = CommonSupportScanner(family, grid, resolution)
    n = family.preperiod
    start = perf_counter()
    scanner.rank_matrix_at(n)
    cold = perf_counter() - start
    warm = []
    for _ in range(REPEATS):
        start = perf_counter()
        scanner.rank_matrix_at(n)
        warm.append(perf_counter() - start)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scanner.rank_matrix_at(n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {"resolution": resolution, "measures": len(grid), "step": n, "cold_s": cold,
            "warm_median_s": statistics.median(warm), "warm_s": warm, "peak_bytes": peak,
            "peak_bytes_per_entry": peak / len(grid) ** 2}


if __name__ == "__main__":
    print(json.dumps(scan_step(int(sys.argv[1]))))
