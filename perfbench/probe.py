"""Host-speed probe: rescale wall times to one fixed host speed.

On a shared host the speed of a core wanders by a third or more, in phases
of seconds to minutes, so the wall time of the same code on the same input
spreads that much between runs, and a median over one run does not remove
it.  The benchmark therefore times a fixed pure-Python loop (``probe``)
while the measured code runs and reports

    scaled_s = (wall_s - time spent in probes) * NOMINAL_S / median(probe times)

that is, the time the code would have taken on a host where the loop takes
exactly ``NOMINAL_S``.  Changes to cantordyn do not touch the loop, so they
move ``scaled_s`` in the same proportion as the wall time; the raw wall
times are printed next to the scaled ones.

The slow phases slow interpreted Python code, like the loop, far more than
numpy array arithmetic.  Over eleven analyze repeats in one stretch, on two
vCPUs of a shared 2.1 GHz Xeon host, the wall times of the pure-Python
workloads spread by 0.16-0.17 of their median and their scaled times by
0.06-0.09, while ``liyorke-grid``, whose scan runs in numpy int64
arithmetic, spread by 0.04 in wall time and 0.10 scaled.  So each workload
records in ``workloads.json`` whether it is rescaled; one that is not
reports its wall time minus the probes' time.

Inside an analyze process, ``Sampler`` runs the loop from a ``SIGALRM``
interval timer, so the probes interleave with the measured code.  Around a
whole process (``cantordyn generate``), ``probe_burst`` runs it just before
and just after.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.001  # the reference host runs one probe in exactly 1 ms
PROBE_LOOP = 20_000  # 1.1-1.6 ms on one vCPU of a shared 2.1 GHz Xeon host
SAMPLE_EVERY_S = 0.05
BURST = 8


def probe() -> float:
    """Wall time of one fixed loop of integer arithmetic."""
    t0 = perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    return perf_counter() - t0


def probe_burst() -> list[float]:
    return [probe() for _ in range(BURST)]


def scale(work_s: float, probes: list[float]) -> float:
    return work_s * NOMINAL_S / statistics.median(probes)


class Sampler:
    """Runs ``probe`` every ``SAMPLE_EVERY_S`` of wall time between start and stop."""

    def __init__(self):
        self.probes: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(probe())

    def start(self) -> None:
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def work_s(self, wall_s: float) -> float:
        """``wall_s``, measured between start and stop, less the probes' time."""
        return wall_s - sum(self.probes)

    def scaled(self, wall_s: float) -> float:
        """``work_s`` at the nominal host speed."""
        probes = self.probes or [probe()]  # a run shorter than one interval
        return scale(self.work_s(wall_s), probes)
