"""cantordyn benchmark: the wall time, set-up time and memory of
``cantordyn analyze`` on four fixed workloads, checked against recorded
report digests.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src``.  Without ``--workload`` every workload runs, one after another.
The workloads, their configs and expected digests are in
``perfbench/workloads.json``; the metric names, units and bounds in
``BENCHMARK.json``.

One run of a workload:

1. writes the workload config into ``.perfbench_work/<workload>``;
2. repeats a cycle for as long as the next one still ends within
   ``--seconds``: run ``cantordyn generate`` a few times, each as its own
   process, then ``cantordyn analyze`` once in a fresh process
   (``child.py``), one process at a time.  ``setup_s`` is the median
   generate time, ``analyze_s`` and ``peak_rss_mb`` the medians over the
   analyze repeats.  Both times are wall times rescaled to a fixed host
   speed by the probe of ``probe.py``, because this benchmark's host is
   shared and its speed wanders; the analyze time of a workload whose
   ``rescale`` is false is not rescaled (see ``probe.py`` for why).  The
   raw wall times are printed too;
3. with ``--trace 1``, runs one more analyze with every cantordyn layer
   wrapped (``tracing.py``) and reports the per-layer figures instead.

Every repeat is checked: all certificates must pass, all repeats must give
one report payload (the report minus ``timings``), and that payload must
match the digest recorded for the workload.  Only ``chains-crosscheck``
draws random inputs from the seed; for the other workloads the payload is
checked at every seed, with the echoed seed set back to the default.  The
last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` certificates and the metrics.  The exit code
is 0 only when the run is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import probe_burst, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150
SETUP_PER_CYCLE = 3  # generate runs per analyze repeat
TRACED_SHARE = 1.5  # a traced analyze takes up to this many untraced cycles


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def child_env(record: dict) -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(record["environment"]["child_env"])
    return env


def run_process(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {CHILD_TIMEOUT_S} s: {' '.join(cmd)}") from exc


def payload_digest(report: dict, workload: dict, default_seed: int) -> str:
    payload = {k: v for k, v in report.items() if k != "timings"}
    if not workload["seed_dependent"]:
        payload["seed"] = default_seed
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    def __init__(self, name: str, record: dict, seed: int):
        self.name = name
        self.spec = record["workloads"][name]
        self.default_seed = record["default_seed"]
        self.seed = seed
        self.env = child_env(record)
        self.dir = WORK / name
        self.config = self.dir / "config.ini"

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config.write_text("\n".join(self.spec["config"]) + "\n")

    def setup(self) -> list[tuple[float, float]]:
        """(wall, scaled) times of ``cantordyn generate``, each run as its own
        process, with host-speed probes just before and after it."""
        cmd = [sys.executable, "-m", "cantordyn.cli", "generate",
               "--config", str(self.config), "--out", str(self.dir)]
        times = []
        for _ in range(SETUP_PER_CYCLE):
            probes = probe_burst()
            t0 = perf_counter()
            proc = run_process(cmd, self.env)
            wall = perf_counter() - t0
            times.append((wall, scale(wall, probes + probe_burst())))
            if proc.returncode != 0:
                raise BenchError(f"{self.name}: generate exited {proc.returncode}:\n"
                                 f"{proc.stdout}{proc.stderr}")
        return times

    def analyze(self, trace: bool = False) -> dict:
        """One analyze process; adds the certificate counts and payload digest."""
        report_path = self.dir / f"report_{self.spec['suite']}.json"
        report_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(self.config),
               "--suite", self.spec["suite"], "--out", str(self.dir), "--seed", str(self.seed)]
        if self.spec["backend"]:
            cmd += ["--backend", self.spec["backend"]]
        if trace:
            cmd.append("--trace")
        proc = run_process(cmd, self.env)
        if proc.returncode != 0:
            raise BenchError(f"{self.name}: analyze process exited {proc.returncode}:\n"
                             f"{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["analyze_s"] = result["scaled_s" if self.spec["rescale"] else "work_s"]
        if result["exit"] == 3 or not report_path.exists():
            # a configuration error fails every certificate of the run
            result.update(total=self.spec["certificates"], passed=0, digest=None)
            return result
        report = load_json(report_path)
        result.update(total=report["summary"]["total"], passed=report["summary"]["passed"],
                      digest=payload_digest(report, self.spec, self.default_seed))
        return result

    def check(self, repeats: list[dict]) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every analyze repeat."""
        expected = None
        if self.seed == self.default_seed or not self.spec["seed_dependent"]:
            expected = self.spec["digest"]
        digests = {r["digest"] for r in repeats}
        mismatch = len(digests) > 1 or (expected is not None and digests != {expected})
        problems = []
        if mismatch:
            problems.append(f"payload digests {sorted(map(str, digests))}, recorded {expected}")
        attempted = failed = 0
        for r in repeats:
            attempted += r["total"]
            failed += r["total"] if mismatch else r["total"] - r["passed"]
            if r["exit"] != 0:
                problems.append(f"analyze exited {r['exit']}: {r['log']}")
        return attempted, failed, problems


def measure(name: str, record: dict, spec: dict, seed: int, seconds: int,
            trace: bool) -> dict:
    wl = Workload(name, record, seed)
    wl.prepare()
    # Cycles of (set-up samples, one analyze) until the next cycle would end
    # after --seconds; a traced run keeps room for its slower traced repeat.
    reserve = TRACED_SHARE if trace else 0.0
    setup_times, repeats = [], []
    t0 = perf_counter()
    while True:
        setup_times += wl.setup()
        repeats.append(wl.analyze())
        elapsed = perf_counter() - t0
        cycle = elapsed / len(repeats)
        if elapsed + cycle * (1 + reserve) > seconds:
            break
    untraced = {
        "analyze_s": statistics.median(r["analyze_s"] for r in repeats),
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in repeats),
    }
    checked = list(repeats)
    if trace:
        traced = wl.analyze(trace=True)
        checked.append(traced)
        figures = dict(traced["trace"])
        figures["trace_overhead_s"] = traced["analyze_s"] - untraced["analyze_s"]
        (wl.dir / "trace.json").write_text(json.dumps(figures, indent=1, sort_keys=True))
        wanted = spec["per_layer"]
    else:
        figures = untraced
        wanted = spec["end_to_end"]
    attempted, failed, problems = wl.check(checked)
    if trace:
        for metric, calls in wl.spec["expect_calls"].items():
            if figures.get(metric) != calls:
                problems.append(f"{metric} = {figures.get(metric)}, expected {calls}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": figures.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
        "problems": problems,
        "samples": [(r["wall_s"], r["analyze_s"]) for r in repeats],
        "setup_wall_s": statistics.median(wall for wall, _ in setup_times),
        "numpy": repeats[0]["numpy"],
    }


def print_result(name: str, result: dict) -> None:
    samples = ", ".join(f"{wall:.3f}/{reported:.3f}" for wall, reported in result["samples"])
    print(f"== {name}: {len(result['samples'])} analyze repeat(s), wall/reported "
          f"[{samples}] s; median generate wall {result['setup_wall_s']:.3f} s; "
          f"{result['failed']}/{result['attempted']} certificates failed")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        spec = load_json(ROOT / "BENCHMARK.json")
        record = load_json(BENCH / "workloads.json")
        parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        parser.add_argument("--workload", choices=sorted(record["workloads"]))
        parser.add_argument("--seed", type=int, default=record["default_seed"])
        parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = parser.parse_args(argv)
        if args.seconds < 1:
            parser.error("--seconds must be at least 1")
        if not (ROOT / "src" / "cantordyn" / "cli.py").is_file():
            raise BenchError(f"no cantordyn source under {ROOT / 'src'}")
        names = [args.workload] if args.workload else list(record["workloads"])
        results = {}
        for name in names:
            results[name] = measure(name, record, spec, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    env = record["environment"]["child_env"]
    print(f"python {platform.python_version()}, numpy {results[names[0]]['numpy']}, "
          f"nproc {os.cpu_count()}, seed {args.seed}, "
          + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, result in results.items():
        print_result(name, result)
    if args.workload:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
