"""Run the benchmark on two source trees alternately, in one session.

    python3 bench/pairs.py TREE_A TREE_B --workload NAME

Each tree is a checkout (a ``git archive`` or ``git clone`` copy, say) with
its own ``perfbench/run.py``.  Both trees' ``src`` are compiled first with
``python -m compileall -q src``, which writes bytecode even where
``PYTHONDONTWRITEBYTECODE`` is set, so both sides are equally fresh: a tree
that compiles its modules in every timed process reads slower set-up and
more memory than one that does not.  Then ``PAIRS`` pairs of
``perfbench/run.py --workload NAME --seconds SECONDS`` runs follow, one
process at a time, each from its own tree's root; pair i runs A first when
i is even and B first when it is odd.

For each metric the script prints both sides' median and quartiles and the
number of pairs in which B reads lower than A, ties counting for neither,
then one JSON line with every run's figures.  It exits non-zero when a run
fails or reports ``correct: false``.  It edits nothing in either tree
besides the bytecode and the benchmark's own work directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # a gain needs nine tenths of at least ten pairs
SECONDS = 3  # run length of each perfbench/run.py run, the same on both sides


def compile_tree(tree: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True,
                   capture_output=True)


def run_once(tree: Path, workload: str) -> dict:
    """The metric values of one ``perfbench/run.py`` run in ``tree``."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", str(SECONDS)], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{tree}: perfbench/run.py exited {done.returncode}, "
                         f"correct {result.get('correct')}:\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True)
    opts = parser.parse_args()
    trees = {"A": opts.tree_a.resolve(), "B": opts.tree_b.resolve()}
    for tree in trees.values():
        compile_tree(tree)
    runs = {"A": [], "B": []}
    for i in range(PAIRS):
        for side in ("AB" if i % 2 == 0 else "BA"):
            runs[side].append(run_once(trees[side], opts.workload))
        print(f"pair {i + 1}: " + "  ".join(
            f"{side} {name}={runs[side][-1][name]:.6g}"
            for name in runs["A"][-1] for side in "AB"), flush=True)
    summary = {}
    print(f"\n{'metric':<14} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}  B lower")
    for name in runs["A"][0]:
        a = [run[name] for run in runs["A"]]
        b = [run[name] for run in runs["B"]]
        lower = sum(y < x for x, y in zip(a, b))
        summary[name] = {"A": spread(a), "B": spread(b), "b_lower": lower, "pairs": PAIRS}
        cells = [f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
                 for s in (summary[name]["A"], summary[name]["B"])]
        print(f"{name:<14} {cells[0]:>32} {cells[1]:>32}  {lower}/{PAIRS}")
    print(json.dumps({"workload": opts.workload, "seconds": SECONDS,
                      "trees": {side: str(tree) for side, tree in trees.items()},
                      "summary": summary, "runs": runs}))


if __name__ == "__main__":
    main()
