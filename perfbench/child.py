"""Run one ``cantordyn analyze`` call in this process and report on it.

Started by ``run.py`` as a fresh interpreter with ``src`` on ``PYTHONPATH``.
The clock starts after the imports and stops once the report and the CSV
are written; meanwhile ``probe.Sampler`` times the host-speed probe every
50 ms.  With ``--trace`` the process first wraps the cantordyn layers
(see ``tracing.py``) and runs ``generate`` traced as well, so that the tower
and map layers are counted; the probes run there too, and their time (about
2%) falls into the self time of the spans they interrupt.  The last line of
standard output is one JSON object: the CLI's exit code, the wall time
``wall_s``, that time less the probes' time (``work_s``) and rescaled to the
nominal host speed (``scaled_s``), the peak resident memory of this process
and, when traced, the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import numpy
from cantordyn import cli
from probe import Sampler


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--suite", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--backend", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    argv = ["analyze", "--config", args.config, "--suite", args.suite,
            "--out", args.out, "--seed", str(args.seed)]
    if args.backend:
        argv += ["--backend", args.backend]
    sampler = Sampler()
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        if tracer is not None:
            if cli.main(["generate", "--config", args.config, "--out", args.out]) != 0:
                raise SystemExit(f"traced generate failed:\n{log.getvalue()}")
        sampler.start()
        t0 = perf_counter()
        code = cli.main(argv)
        wall_s = perf_counter() - t0
        sampler.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "exit": code,
        "wall_s": wall_s,
        "work_s": sampler.work_s(wall_s),
        "scaled_s": sampler.scaled(wall_s),
        "peak_rss_mb": peak_kb / 1024,
        "numpy": numpy.__version__,
        "log": log.getvalue()[-2000:] if code != 0 else "",
    }
    if tracer is not None:
        result["trace"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
