"""Batch experiment runner: generate witness maps, run certificate suites,
compute exact distances between measure files, and summarize reports.

Commands
--------
generate   build a balloon or dumbbell tower from a config and write it
           (with its certified levels) to a JSON map file
analyze    load a map file, run a certificate suite, write report.json and
           summary.csv
prohorov   exact distance between two measure files
report     print the pass/fail table of an existing report

Exit codes: 0 all certificates pass, 2 some certificate failed,
3 configuration or usage error (a config file that does not parse, a
malformed [map] or [run] value, or an [analysis] key not in ``_ANALYSIS``).
A suite that declines its inputs, exceeds a budget or fails a
certification fails as one certificate, so the other suites' are kept.  A
decline (a ParameterError, such as a bad value of a key it reads or a map
its certificates do not apply to) is the suite's only certificate,
wherever in the suite it is found.  An exhausted budget
(``resource_budget_exceeded``) or a failed certification
(``certification_failed``, such as two backends that disagree) follows the
certificates that held.

All rationals cross this boundary as "p/q" strings; reports are
deterministic given the config and seed.  The separate ``timings`` field
holds, per suite, its wall time in ms, the integer Prohorov problems it
solved and the pushforwards it computed (``solves``, ``pushforwards``; the
solves include those of the distance profiles), the word separations and
images it computed (``separations``, ``images``), the chain records it
started (``chains``), the measures whose own orbit it certified for the
distance profiles (``cycles``), the (map, measure) orbits it certified
with their padded windows for the target distances and the profiles
(``orbits``), the distance rows it started for the composed profiles'
window states (``distance_rows``), and the calls of each that a
per-process memo or table answered instead
(``solve_hits``, ``pushforward_hits``, ``separation_hits``,
``image_hits``, ``chain_hits``: a chain call read off an earlier record,
``cycle_hits``: a profile's measure whose orbit record was kept,
``orbit_hits``: a target distance that read a kept orbit record,
``distance_row_hits``: a window state whose row an earlier orbit record
started).  Each count plus its hits is the number of calls:
``solves`` plus ``solve_hits`` is the number of ``prohorov`` and
``prohorov_distance`` calls.  Each row is the change of ``tables.counts()``
over the suite, the one registry of those memos and tables.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import tables
from .certs import Certificate
from .dynamics import (
    chain_connect_homeo,
    chain_connect_map,
    chain_step_count,
    chain_continuity_test,
    entropy_estimate,
    transitivity_check,
    weak_shadowing_refutation,
)
from .errors import CantorDynError, CertificationError, ParameterError, ResourceBudgetError
from .grids import PairClass, li_yorke_scan, random_cell_measure, simplex_grid
from .measures import BACKENDS, measure_from_lines, prohorov, prohorov_two_sided
from .recurrence import (
    AdmissibleChoice,
    approx_by_periodic,
    consistency_check,
    enumerate_admissible_choices,
    loop_support_check,
    periodic_measure,
    recurrence_certificate,
    transient_perturbation,
)
from .towers import make_balloon_tower, make_dumbbell_tower, tower_from_dict, tower_to_dict


def _read(cfg, section: str, key: str, parse, fallback=None):
    """``parse`` of the value of ``key`` in ``section``: a missing key
    without a fallback, or a value that ``parse`` cannot read, raises
    ParameterError naming the key."""
    raw = cfg.get(section, key, fallback=fallback)
    if raw is None:
        raise ParameterError(f"[{section}] {key} is missing")
    try:
        return parse(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _list(item):
    """The parser of a comma-separated, nonempty list of ``item`` values."""
    def parse(raw: str) -> list:
        values = [item(part.strip()) for part in raw.split(",") if part.strip()]
        if not values:
            raise ValueError("names no value")
        return values
    return parse


def _depth_q(raw: str) -> tuple[int, int]:
    depth, q = raw.split(":")
    return int(depth), int(q)


def _at_least(low: int):
    return lambda value, tower: None if value >= low else f"is below {low}"


def _positive(value, tower):
    return None if value > 0 else "is not positive"


def _unit(value, tower):
    return None if 0 < value < 1 else "is not strictly between 0 and 1"


# every [analysis] key: its parser, its default and its check, which is
# applied to each value the key names and returns why it is refused, or None
_ANALYSIS = {
    "level": (int, "0", lambda level, tower: None if 0 <= level < len(tower.levels)
              else f"is not a certified level (0..{len(tower.levels) - 1})"),
    "eps": (Fraction, "1/4", _positive),
    "delta": (Fraction, "1/2", _unit),
    "grid_resolution": (int, "2", _at_least(1)),
    "entropy_resolution": (int, "2", _at_least(1)),
    # the entropy verdict compares the counts at the last two horizons
    "entropy_horizon": (int, "6", _at_least(2)),
    "entropy_eps": (_list(Fraction), "1/2, 1/4", _positive),
    "chain_deltas": (_list(Fraction), "3/4, 1/2", _unit),
    # no pair or no length verifies no chain
    "chain_pairs": (int, "4", _at_least(1)),
    "chain_lengths_extra": (int, "2", _at_least(0)),
    "continuity_depth": (int, "3", _at_least(1)),
    "backend": (str, "auto", lambda name, tower: None if name in BACKENDS
                else f"is not one of {', '.join(BACKENDS)}"),
    "periods": (_list(int), "1, 2", _at_least(1)),
    "lambda": (_list(Fraction), "1/4", _unit),
}


def _analysis(cfg, key: str, tower):
    """The value of [analysis] ``key``, or its default: a value that the
    key's parser or check refuses raises ParameterError naming the key."""
    parse, default, check = _ANALYSIS[key]
    value = _read(cfg, "analysis", key, parse, default)
    for item in value if isinstance(value, list) else (value,):
        reason = check(item, tower)
        if reason is not None:
            raise ParameterError(f"[analysis] {key} = {item} {reason}")
    return value


def load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ParameterError(f"config file not found: {path}")
    return parser


def build_tower_from_config(cfg: configparser.ConfigParser):
    kind = cfg.get("map", "kind", fallback="balloon")
    if kind == "balloon":
        levels = _read(cfg, "map", "levels", _list(_depth_q))
        return make_balloon_tower(levels, _read(cfg, "map", "counts", _list(int)))
    if kind == "dumbbell":
        return make_dumbbell_tower(
            _read(cfg, "map", "level", _depth_q),
            _read(cfg, "map", "count", int, "1"),
            _read(cfg, "map", "bar_length", int, "1"),
        )
    raise ParameterError(f"unknown map kind {kind!r}")


def _map_path(cfg, out_dir: Path) -> Path:
    """The map file in ``out_dir``: [run] map_file, map.json by default."""
    return out_dir / _read(cfg, "run", "map_file", str, "map.json")


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    tower = build_tower_from_config(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = _map_path(cfg, out_dir)
    path.write_text(json.dumps(tower_to_dict(tower), indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}: {tower.kind} tower, {len(tower.levels)} level(s), "
          f"{len(tower.table.rules)} rules")
    for i, level in enumerate(tower.levels):
        partition = level.partition()
        print(f"  level {i}: q={level.q} components={len(level.components)} "
              f"cells={len(partition)} mesh={partition.mesh()}")
    return 0


def _suite_liyorke(tower, values, rng):
    resolution, level = values["grid_resolution"], values["level"]
    scan = li_yorke_scan(tower.table, tower.levels[level].partition(), resolution)
    none = scan.counts[PairClass.LI_YORKE_PAIR.value] == 0
    yield Certificate(
        operation="li_yorke_scan",
        passed=none,
        verdict="no_li_yorke_pairs" if none else "li_yorke_pair_found",
        parameters={"resolution": resolution, "level": level,
                    "grid_size": len(scan.grid), "pairs": scan.pair_count},
        witnesses={"counts": scan.counts},
        details={"preperiod": scan.family.preperiod, "period": scan.family.period},
    )


def _suite_entropy(tower, values, rng):
    horizon, eps_list = values["entropy_horizon"], values["entropy_eps"]
    partition = tower.levels[values["level"]].partition()
    grid = simplex_grid(partition, values["entropy_resolution"])
    table = entropy_estimate(tower.table, grid, eps_list, horizon)
    for eps in eps_list:
        counts = {n: table.counts[(n, eps)] for n in table.horizons}
        ok = (
            table.is_monotone_in_n(eps)
            and table.normalized_log_nonincreasing(eps)
            and table.slope_zero_at_horizon(eps)
        )
        yield Certificate(
            operation="entropy_growth",
            passed=ok,
            verdict="zero_growth_at_horizon" if ok else "growth_detected",
            parameters={"eps": eps, "horizon": horizon, "grid_size": table.grid_size,
                        "exact": table.exact},
            witnesses={"separated_counts": counts},
            details={},
        )


def _suite_chains(tower, values, rng):
    extra, pair_count = values["chain_lengths_extra"], values["chain_pairs"]
    partition = tower.levels[values["level"]].partition()
    pairs = [
        (random_cell_measure(partition, rng, 4), random_cell_measure(partition, rng, 4))
        for _ in range(pair_count)
    ]
    homeo = tower.table.is_homeomorphism()
    connect = chain_connect_homeo if homeo else chain_connect_map
    for delta in values["chain_deltas"]:
        k0 = chain_step_count(delta)
        failures = []
        for idx, (mu, nu) in enumerate(pairs):
            for k in range(k0, k0 + extra + 1):
                try:
                    connect(tower.table, mu, nu, delta, k, backend=values["backend"])
                except CantorDynError as exc:
                    failures.append({"pair": idx, "k": k, "error": str(exc)})
        yield Certificate(
            operation="chain_connection",
            passed=not failures,
            verdict="all_chains_verified" if not failures else "chain_failure",
            parameters={"delta": delta, "k0": k0,
                        "lengths": list(range(k0, k0 + extra + 1)),
                        "pairs": pair_count, "mode": "homeo" if homeo else "map"},
            witnesses={"failures": failures},
            details={},
        )
    yield chain_continuity_test(
        tower.table, values["continuity_depth"], values["eps"], values["delta"])


def _suite_shadowing(tower, values, rng):
    partition = tower.levels[values["level"]].partition()
    yield transitivity_check(tower.table, partition)
    if tower.kind == "dumbbell":
        grid = simplex_grid(partition, values["grid_resolution"])
        yield weak_shadowing_refutation(tower, values["eps"], values["delta"], grid)


def _suite_recurrence(tower, values, rng):
    periods, eps = values["periods"], values["eps"]
    for p in periods:
        choices = enumerate_admissible_choices(tower, period=p)
        measures = [periodic_measure(tower, c, level=len(c.components) - 1) for c in choices]
        distinct = len(set(measures))
        yield Certificate(
            operation="periodic_measures",
            passed=distinct == len(measures),
            verdict="distinct_periodic_points" if distinct == len(measures) else "collision",
            parameters={"period": p, "choices": len(choices)},
            witnesses={"distinct": distinct},
            details={},
        )
        if len(tower.levels) >= 2 and choices:
            yield consistency_check(tower, choices[0], 0, 1)
    base_choice = AdmissibleChoice(components=(0,) * len(tower.levels), period=periods[0])
    mu = periodic_measure(tower, base_choice, level=len(tower.levels) - 1)
    yield loop_support_check(tower, mu)
    yield recurrence_certificate(tower, mu, eps)
    for lam in values["lambda"]:
        yield transient_perturbation(tower, mu, lam)[1]
    _, cert = approx_by_periodic(tower, mu, eps)
    yield cert


# each suite and the [analysis] keys it reads, whatever the map
_RUNNERS = {
    "liyorke": (_suite_liyorke, ("level", "grid_resolution")),
    "entropy": (_suite_entropy, ("level", "entropy_resolution", "entropy_horizon",
                                 "entropy_eps")),
    "chains": (_suite_chains, ("level", "backend", "chain_deltas", "chain_pairs",
                               "chain_lengths_extra", "continuity_depth", "eps", "delta")),
    "shadowing": (_suite_shadowing, ("level", "eps", "delta", "grid_resolution")),
    "recurrence": (_suite_recurrence, ("periods", "eps", "lambda")),
}
SUITES = (*_RUNNERS, "all")


# the verdict of a suite that raises each of these errors
_FAILURES = {
    ParameterError: "declined",
    ResourceBudgetError: "resource_budget_exceeded",
    CertificationError: "certification_failed",
}


def run_suite(tower, suite: str, cfg, rng):
    certificates = []
    timings = []
    for runner, keys in _RUNNERS.values() if suite == "all" else (_RUNNERS[suite],):
        t0, memo0 = time.monotonic(), tables.counts()
        produced = []
        try:
            # every value the suite reads is checked before its first certificate
            values = {key: _analysis(cfg, key, tower) for key in keys}
            produced.extend(runner(tower, values, rng))
        except tuple(_FAILURES) as exc:
            # a failed suite fails as one certificate, never the whole run: a
            # decline, wherever the suite found it, is its only certificate;
            # an exhausted budget or a failed certification follows the
            # certificates that held
            verdict = next(v for error, v in _FAILURES.items() if isinstance(exc, error))
            failure = Certificate(operation=runner.__name__.lstrip("_"), passed=False,
                                  verdict=verdict, witnesses={"error": str(exc)})
            produced = [failure] if isinstance(exc, ParameterError) else [*produced, failure]
        certificates.extend(produced)
        ms = int(1000 * (time.monotonic() - t0))
        memo = {key: n - memo0[key] for key, n in tables.counts().items()}
        timings.append({"stage": runner.__name__, "ms": ms, **memo})
    return certificates, timings


def _config_echo(cfg) -> dict:
    return {section: dict(cfg[section]) for section in cfg.sections()}


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    for key in cfg["analysis"] if cfg.has_section("analysis") else ():
        if key not in _ANALYSIS:
            raise ParameterError(f"[analysis] {key} is not a known key")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    map_path = _map_path(cfg, out_dir)
    if not map_path.exists():
        raise ParameterError(f"map file not found: {map_path} (run generate first)")
    tower = tower_from_dict(json.loads(map_path.read_text()))
    seed = args.seed if args.seed is not None else _read(cfg, "run", "seed", int, "0")
    if args.backend is not None:
        if not cfg.has_section("analysis"):
            cfg.add_section("analysis")
        cfg["analysis"]["backend"] = args.backend
    rng = random.Random(seed)
    certificates, timings = run_suite(tower, args.suite, cfg, rng)
    payloads = [c.payload() for c in certificates]
    report = {
        "config": _config_echo(cfg),
        "suite": args.suite,
        "seed": seed,
        "certificates": payloads,
        "summary": {
            "total": len(payloads),
            "passed": sum(1 for p in payloads if p["passed"]),
        },
    }
    report_path = out_dir / f"report_{args.suite}.json"
    full = dict(report)
    full["timings"] = timings
    report_path.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")
    csv_path = out_dir / f"summary_{args.suite}.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["operation", "verdict", "passed", "parameters", "witnesses"])
        for p in payloads:
            writer.writerow(
                [p["operation"], p["verdict"], p["passed"],
                 json.dumps(p["parameters"], sort_keys=True),
                 json.dumps(p["witnesses"], sort_keys=True)]
            )
    for p in payloads:
        print(f"[{'PASS' if p['passed'] else 'FAIL'}] {p['operation']}: {p['verdict']}")
    print(f"wrote {report_path} and {csv_path}")
    return 0 if report["summary"]["passed"] == report["summary"]["total"] else 2


def cmd_prohorov(args) -> int:
    mu = measure_from_lines(Path(args.mu).read_text().splitlines())
    nu = measure_from_lines(Path(args.nu).read_text().splitlines())
    result = prohorov(mu, nu, backend=args.backend)
    print(result.value)
    print(f"witness set: {list(result.witness_set)}")
    if args.two_sided:
        # the two-sided oracle has no closed form: every choice but
        # enumeration runs flow, so the default never meets enumeration's limit
        two_sided_backend = "enumeration" if args.backend == "enumeration" else "flow"
        symmetric = prohorov_two_sided(mu, nu, backend=two_sided_backend)
        print(f"two-sided: {symmetric}")
        if symmetric != result.value:
            print("MISMATCH between one-sided and two-sided values", file=sys.stderr)
            return 2
    return 0


def cmd_report(args) -> int:
    data = json.loads(Path(args.report).read_text())
    rows = data.get("certificates", [])
    for p in rows:
        print(f"[{'PASS' if p['passed'] else 'FAIL'}] {p['operation']}: {p['verdict']}")
    total, passed = data["summary"]["total"], data["summary"]["passed"]
    print(f"{passed}/{total} certificates passed")
    return 0 if passed == total else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cantordyn",
        description="exact certificates for induced maps on Cantor-space measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build and write a witness map")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", default=".")
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="run a certificate suite on a map")
    ana.add_argument("--config", required=True)
    ana.add_argument("--suite", choices=SUITES, default="all")
    ana.add_argument("--out", default=".")
    ana.add_argument("--seed", type=int, default=None)
    ana.add_argument("--backend", choices=BACKENDS,
                     default=None, help="select the distance solver of chain verification")
    ana.set_defaults(func=cmd_analyze)

    pro = sub.add_parser("prohorov", help="exact distance between measure files")
    pro.add_argument("mu")
    pro.add_argument("nu")
    pro.add_argument("--backend", choices=BACKENDS,
                     default="both")
    pro.add_argument("--two-sided", action="store_true")
    pro.set_defaults(func=cmd_prohorov)

    rep = sub.add_parser("report", help="summarize an existing report")
    rep.add_argument("report")
    rep.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CantorDynError, OSError, json.JSONDecodeError, KeyError, configparser.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
