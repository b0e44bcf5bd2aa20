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
3 configuration or usage error (a config file that does not parse, or a
malformed [map] or [run] value).  A suite that exceeds a budget or declines
its inputs (a ParameterError while it runs, such as a malformed [analysis]
value it reads) is recorded as a failed certificate, so the other suites'
certificates are kept.

All rationals cross this boundary as "p/q" strings; reports are
deterministic given the config and seed.  The separate ``timings`` field
holds, per suite, its wall time in ms, the integer Prohorov problems it
solved and the pushforwards it computed (``solves``, ``pushforwards``; the
solves include those of the distance profiles), the word separations and
images it computed (``separations``, ``images``), the chain records it
started (``chains``), and the calls of each that a per-process memo or
table answered instead (``solve_hits``, ``pushforward_hits``,
``separation_hits``, ``image_hits``, ``chain_hits``: a chain call read off
an earlier record).  Each count plus its hits is the number of calls:
``solves`` plus ``solve_hits`` is the number of ``prohorov`` calls.  Each
row is the change of ``tables.counts()`` over the suite, the one registry
of those memos and tables.
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
from .errors import CantorDynError, ParameterError, ResourceBudgetError
from .grids import li_yorke_scan, random_cell_measure, simplex_grid
from .measures import measure_from_lines, prohorov, prohorov_two_sided
from .orbits import PairClass
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

BACKENDS = ("enumeration", "flow", "auto", "both")


def _fractions(raw: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in raw.split(",") if part.strip()]


def _ints(raw: str) -> list[int]:
    return [int(part.strip()) for part in raw.split(",") if part.strip()]


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


def _backend(raw: str) -> str:
    if raw not in BACKENDS:
        raise ValueError(f"not one of {', '.join(BACKENDS)}")
    return raw


def _depth_q(raw: str) -> tuple[int, int]:
    depth, q = raw.split(":")
    return int(depth), int(q)


def _shared(cfg, key: str):
    """An [analysis] value that more than one suite reads, with its one
    default: ``eps``, ``delta`` or ``grid_resolution``."""
    parse, default = {"eps": (Fraction, "1/4"), "delta": (Fraction, "1/2"),
                      "grid_resolution": (int, "2")}[key]
    return _read(cfg, "analysis", key, parse, default)


def _level(tower, cfg) -> int:
    """The configured certified level, 0 .. len(tower.levels) - 1."""
    level = _read(cfg, "analysis", "level", int, "0")
    if not 0 <= level < len(tower.levels):
        raise ParameterError(f"[analysis] level = {level} is not a certified level "
                             f"(0..{len(tower.levels) - 1})")
    return level


def load_config(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ParameterError(f"config file not found: {path}")
    return parser


def build_tower_from_config(cfg: configparser.ConfigParser):
    kind = cfg.get("map", "kind", fallback="balloon")
    if kind == "balloon":
        levels = _read(cfg, "map", "levels", lambda raw: [_depth_q(p) for p in raw.split(",")])
        return make_balloon_tower(levels, _read(cfg, "map", "counts", _ints))
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


def _suite_liyorke(tower, cfg, rng):
    resolution = _shared(cfg, "grid_resolution")
    level = _level(tower, cfg)
    scan = li_yorke_scan(tower.table, tower.levels[level].partition(), resolution)
    yield Certificate(
        operation="li_yorke_scan",
        passed=scan.counts[PairClass.LI_YORKE_PAIR.value] == 0,
        verdict="no_li_yorke_pairs"
        if scan.counts[PairClass.LI_YORKE_PAIR.value] == 0
        else "li_yorke_pair_found",
        parameters={"resolution": resolution, "level": level,
                    "grid_size": len(scan.grid), "pairs": scan.pair_count},
        witnesses={"counts": scan.counts},
        details={"preperiod": scan.family.preperiod, "period": scan.family.period},
    )


def _suite_entropy(tower, cfg, rng):
    level = _level(tower, cfg)
    resolution = _read(cfg, "analysis", "entropy_resolution", int, "2")
    horizon = _read(cfg, "analysis", "entropy_horizon", int, "6")
    if horizon < 2:
        # the verdict compares the counts at the last two horizons
        raise ParameterError(f"[analysis] entropy_horizon = {horizon} is below 2")
    eps_list = _read(cfg, "analysis", "entropy_eps", _fractions, "1/2, 1/4")
    if not eps_list:
        raise ParameterError("[analysis] entropy_eps names no eps")
    partition = tower.levels[level].partition()
    grid = simplex_grid(partition, resolution)
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


def _suite_chains(tower, cfg, rng):
    backend = _read(cfg, "analysis", "backend", _backend, "auto")
    deltas = _read(cfg, "analysis", "chain_deltas", _fractions, "3/4, 1/2")
    if not deltas:
        raise ParameterError("[analysis] chain_deltas names no delta")
    # every delta's k0 before the first certificate: an invalid delta declines the suite
    k0s = [chain_step_count(delta) for delta in deltas]
    extra = _read(cfg, "analysis", "chain_lengths_extra", int, "2")
    if extra < 0:
        raise ParameterError(f"[analysis] chain_lengths_extra = {extra} is below 0")
    partition = tower.levels[_level(tower, cfg)].partition()
    pair_count = _read(cfg, "analysis", "chain_pairs", int, "4")
    if pair_count < 1:
        raise ParameterError(f"[analysis] chain_pairs = {pair_count} is below 1")
    pairs = [
        (random_cell_measure(partition, rng, 4), random_cell_measure(partition, rng, 4))
        for _ in range(pair_count)
    ]
    homeo = tower.table.is_homeomorphism()
    for delta, k0 in zip(deltas, k0s):
        failures = []
        for idx, (mu, nu) in enumerate(pairs):
            for k in range(k0, k0 + extra + 1):
                try:
                    if homeo:
                        chain_connect_homeo(tower.table, mu, nu, delta, k, backend=backend)
                    else:
                        chain_connect_map(tower.table, mu, nu, delta, k, backend=backend)
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
        tower.table,
        _read(cfg, "analysis", "continuity_depth", int, "3"),
        _shared(cfg, "eps"),
        _shared(cfg, "delta"),
    )


def _suite_shadowing(tower, cfg, rng):
    partition = tower.levels[_level(tower, cfg)].partition()
    yield transitivity_check(tower.table, partition)
    if tower.kind == "dumbbell":
        eps, delta = _shared(cfg, "eps"), _shared(cfg, "delta")
        grid = simplex_grid(partition, _shared(cfg, "grid_resolution"))
        yield weak_shadowing_refutation(tower, eps, delta, grid)


def _suite_recurrence(tower, cfg, rng):
    periods = _read(cfg, "analysis", "periods", _ints, "1, 2")
    if not periods:
        raise ParameterError("[analysis] periods names no period")
    eps = _shared(cfg, "eps")
    lam_list = _read(cfg, "analysis", "lambda", _fractions, "1/4")
    if not lam_list:
        raise ParameterError("[analysis] lambda names no lambda")
    # every period and lambda before the first certificate, so that an
    # invalid one declines the suite instead of ending it midway
    for lam in lam_list:
        if not 0 < lam < 1:
            raise ParameterError(f"[analysis] lambda = {lam} is not strictly between 0 and 1")
    choices_by_period = [(p, enumerate_admissible_choices(tower, period=p)) for p in periods]
    for p, choices in choices_by_period:
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
    base_choice = AdmissibleChoice(
        components=tuple(0 for _ in tower.levels), period=periods[0]
    )
    mu = periodic_measure(tower, base_choice, level=len(tower.levels) - 1)
    yield loop_support_check(tower, mu)
    yield recurrence_certificate(tower, mu, eps)
    for lam in lam_list:
        _, cert = transient_perturbation(tower, mu, lam)
        yield cert
    _, cert = approx_by_periodic(tower, mu, eps)
    yield cert


_RUNNERS = {
    "liyorke": _suite_liyorke,
    "entropy": _suite_entropy,
    "chains": _suite_chains,
    "shadowing": _suite_shadowing,
    "recurrence": _suite_recurrence,
}
SUITES = (*_RUNNERS, "all")


def run_suite(tower, suite: str, cfg, rng):
    certificates = []
    timings = []
    for runner in _RUNNERS.values() if suite == "all" else (_RUNNERS[suite],):
        t0, memo0 = time.monotonic(), tables.counts()
        try:
            certificates.extend(runner(tower, cfg, rng))
        except (ResourceBudgetError, ParameterError) as exc:
            # an exhausted budget or a declined suite fails the item, never the whole run
            certificates.append(
                Certificate(
                    operation=runner.__name__.lstrip("_"),
                    passed=False,
                    verdict="resource_budget_exceeded"
                    if isinstance(exc, ResourceBudgetError)
                    else "declined",
                    witnesses={"error": str(exc)},
                )
            )
        ms = int(1000 * (time.monotonic() - t0))
        memo = {key: n - memo0[key] for key, n in tables.counts().items()}
        timings.append({"stage": runner.__name__, "ms": ms, **memo})
    return certificates, timings


def _config_echo(cfg) -> dict:
    return {section: dict(cfg[section]) for section in cfg.sections()}


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
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
