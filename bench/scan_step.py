"""Time one all-pairs scan time step, ``rank_matrix_at``, in this process,
and trace the memory of the step and of one whole Li-Yorke scan.

    python3 bench/scan_step.py RESOLUTION

Builds the simplex grid of the given resolution on level 0 of the dumbbell
tower of the ``liyorke-grid`` workload (levels 4:2, count 2, bar 1; 10
cells, so resolution 4 gives 715 measures and 5 gives 2,002), then times
the step at the family's preperiod, the first one ``li_yorke_scan`` takes:

- ``cold_s``: its first call in this process, the one a scan pays;
- ``warm_s``: ``REPEATS`` further calls of the same step, with their median;
- ``peak_bytes``: the tracemalloc peak of one more call above what was
  allocated before it, result included, also per matrix entry;
- ``scan_peak_bytes``: the tracemalloc peak of one whole ``li_yorke_scan``
  of the same grid, afterwards in the same process, above what was
  allocated before it, its result included, also per matrix entry.

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
from cantordyn.grids import (  # noqa: E402
    CommonSupportScanner, li_yorke_scan, simplex_grid, track_representatives)
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
    peak = traced_peak(lambda: scanner.rank_matrix_at(n))
    scan_peak = traced_peak(lambda: li_yorke_scan(tower.table, partition, resolution))
    entries = len(grid) ** 2
    return {"resolution": resolution, "measures": len(grid), "step": n, "cold_s": cold,
            "warm_median_s": statistics.median(warm), "warm_s": warm, "peak_bytes": peak,
            "peak_bytes_per_entry": peak / entries, "scan_peak_bytes": scan_peak,
            "scan_peak_bytes_per_entry": scan_peak / entries}


def traced_peak(call) -> int:
    """The tracemalloc peak of one call above what was allocated before it,
    its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    print(json.dumps(scan_step(int(sys.argv[1]))))
