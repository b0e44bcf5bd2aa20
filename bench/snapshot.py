"""Write one ``BENCH_<n>.json`` snapshot of the benchmark figures.

    python3 bench/snapshot.py N [--seconds S] [--out DIR]

Run from anywhere inside a source checkout; it writes ``DIR/BENCH_N.json``
(``DIR`` defaults to the checkout's root) and prints it.  The file holds:

- ``perfbench``: the last JSON line of ``perfbench/run.py --seconds S``,
  run unedited over every workload, and its exit code;
- ``bytecode``: the state the timed processes ran in.  ``src`` is
  compiled with ``python -m compileall -q src`` before them, which writes
  bytecode even where ``PYTHONDONTWRITEBYTECODE`` is set, so every timed
  process reads compiled bytecode, as an installed package does; the
  file records that command and the variable's value;
- ``fixed_cost_s``: the wall time of ``REPEATS`` fresh ``python -c pass``
  processes and of ``REPEATS`` that only ``import cantordyn.cli``, with
  their medians: the floor that each suite's figure below stands on;
- ``analyze_wall_s``: per suite of ``cantordyn analyze``, the wall time of
  ``REPEATS`` fresh subprocesses on the README example config, imports
  included (the benchmark's ``analyze_s`` starts its clock after the
  imports), with their median and exit codes;
- ``scan_step``: one all-pairs scan time step (``rank_matrix_at``) at
  R = 715 and R = 2,002, each from ``bench/scan_step.py`` in a fresh
  subprocess: its cold first call, its warm median and its tracemalloc
  peak;
- ``host``: the git SHA of the checkout, the Python and numpy versions and
  the number of CPUs this process may run on.

Nothing is compared against a bound: a snapshot records figures, and the
gates are the benchmark's own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from cantordyn.cli import SUITES  # noqa: E402

REPEATS = 5  # fresh processes per timed command
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
SCAN_STEP_RESOLUTIONS = (4, 5)  # R = 715, the liyorke-grid grid, and R = 2,002


def perfbench(seconds: int) -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", str(seconds)],
                          cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return {"seconds": seconds, "exit_code": done.returncode,
            "result": json.loads(lines[-1]) if lines else None}


def compile_sources() -> dict:
    """Compile ``src`` before any timed process, and say so."""
    command = [sys.executable, "-m", "compileall", "-q", "src"]
    subprocess.run(command, cwd=ROOT, check=True, capture_output=True)
    return {"compiled_with": "python -m compileall -q src",
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def fresh_walls(command: list[str]) -> dict:
    """The wall times of ``REPEATS`` fresh processes of one command."""
    walls, codes = [], []
    for _ in range(REPEATS):
        start = perf_counter()
        done = subprocess.run(command, env=ENV, capture_output=True)
        walls.append(perf_counter() - start)
        codes.append(done.returncode)
    return {"median_s": statistics.median(walls), "runs_s": walls, "exit_codes": codes}


def fixed_costs() -> dict:
    return {"python -c pass": fresh_walls([sys.executable, "-c", "pass"]),
            "import cantordyn.cli": fresh_walls([sys.executable, "-c", "import cantordyn.cli"])}


def analyze_walls(work: Path) -> dict:
    """The README example config, generated once, then each suite analyzed
    ``REPEATS`` times, each in its own process."""
    readme = (ROOT / "README.md").read_text()
    config = work / "config.ini"
    config.write_text(readme.split("Example config:\n\n```ini\n")[1].split("```")[0])
    cli = [sys.executable, "-m", "cantordyn.cli"]
    args = ["--config", str(config), "--out", str(work)]
    subprocess.run(cli + ["generate"] + args, env=ENV, check=True, capture_output=True)
    return {suite: fresh_walls(cli + ["analyze", "--suite", suite] + args) for suite in SUITES}


def scan_steps() -> list[dict]:
    out = []
    for resolution in SCAN_STEP_RESOLUTIONS:
        done = subprocess.run([sys.executable, "bench/scan_step.py", str(resolution)],
                              cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        out.append({"exit_code": done.returncode,
                    "result": json.loads(lines[-1]) if lines else None})
    return out


def host() -> dict:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    try:
        numpy = version("numpy")
    except PackageNotFoundError:
        numpy = None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"git_sha": sha.stdout.strip() or None, "python": platform.python_version(),
            "numpy": numpy, "nproc": cpus}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="n of BENCH_<n>.json")
    parser.add_argument("--seconds", type=int, default=3,
                        help="run length of each perfbench workload")
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write into")
    opts = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        snapshot = {"host": host(), "perfbench": perfbench(opts.seconds),
                    "bytecode": compile_sources(), "fixed_cost_s": fixed_costs(),
                    "analyze_wall_s": analyze_walls(Path(work)), "scan_step": scan_steps()}
    text = json.dumps(snapshot, indent=2) + "\n"
    (opts.out / f"BENCH_{opts.number}.json").write_text(text)
    print(text, end="")


if __name__ == "__main__":
    main()
