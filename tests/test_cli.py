"""End-to-end CLI behaviour: generation, suites, exit codes, determinism."""

import configparser
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cantordyn
from cantordyn import cli, dynamics, measures, orbits, tables
from cantordyn.cantor import separation
from cantordyn.cli import main
from cantordyn.errors import CertificationError, ResourceBudgetError
from cantordyn.maps import _rewritten
from cantordyn.measures import atomic_measure, dirac
from fractions import Fraction

BALLOON_CONFIG = """
[map]
kind = balloon
levels = 3:2, 5:2
counts = 2, 4

[analysis]
eps = 1/4
delta = 1/2
lambda = 1/4, 1/8
periods = 1, 2
grid_resolution = 2
entropy_resolution = 1
entropy_horizon = 4
entropy_eps = 1/2
chain_deltas = 3/4
chain_pairs = 1
chain_lengths_extra = 1
continuity_depth = 3
level = 0

[run]
seed = 5
map_file = map.json
"""

DUMBBELL_CONFIG = """
[map]
kind = dumbbell
level = 4:2
count = 2
bar_length = 1

[analysis]
eps = 1/3
delta = 1/2
lambda = 1/4
periods = 1, 2
grid_resolution = 1
entropy_resolution = 1
entropy_horizon = 4
entropy_eps = 1/2
chain_deltas = 3/4
chain_pairs = 1
chain_lengths_extra = 1
continuity_depth = 4
level = 0

[run]
seed = 5
map_file = map.json
"""


def _write_config(tmp_path, text):
    path = tmp_path / "config.ini"
    path.write_text(text)
    return str(path)


def write_measure(path, mu) -> None:
    """Write a measure file in the text form that ``cantordyn prohorov`` reads."""
    path.write_text("".join(f"{p or 'e'} {m}\n" for p, m in mu.atoms))


def test_generate_and_analyze_balloon(tmp_path, capsys):
    cfg = _write_config(tmp_path, BALLOON_CONFIG)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "map.json").exists()
    assert main(["analyze", "--config", cfg, "--suite", "recurrence",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_recurrence.json").read_text())
    assert report["summary"]["passed"] == report["summary"]["total"]
    assert (tmp_path / "summary_recurrence.csv").exists()
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_full_suite_dumbbell(tmp_path):
    cfg = _write_config(tmp_path, DUMBBELL_CONFIG)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", cfg, "--suite", "all",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_all.json").read_text())
    operations = {c["operation"] for c in report["certificates"]}
    assert {"li_yorke_scan", "entropy_growth", "chain_connection",
            "transitivity_check", "weak_shadowing_refutation",
            "loop_support_check"} <= operations
    # no floats anywhere in the payloads
    def assert_no_floats(obj):
        if isinstance(obj, float):
            raise AssertionError("float in payload")
        if isinstance(obj, dict):
            for v in obj.values():
                assert_no_floats(v)
        if isinstance(obj, list):
            for v in obj:
                assert_no_floats(v)
    assert_no_floats(report["certificates"])


# sha256 of the full-suite report minus "timings", compact JSON with sorted keys
REPORT_DIGESTS = {
    "balloon": (BALLOON_CONFIG,
                "5de314684a83128cbf1b4940e54463dd8eb1bbea936623969061a768a88c0e03"),
    "dumbbell": (DUMBBELL_CONFIG,
                 "a02d2fea2d4a84335978b4daff89b9a4fe266e8962c4558071ac43880b0cab11"),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_payloads_are_pinned(tmp_path, monkeypatch, name):
    config, expected = REPORT_DIGESTS[name]
    cfg = _write_config(tmp_path, config)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    # the library builds every measure of a run from integer weights: the
    # checked rational constructor and convex_combine serve the boundary only
    calls = []
    init, convex_combine = measures.AtomicMeasure.__init__, measures.convex_combine

    def counted(label, function):
        def call(*args):
            calls.append(label)
            return function(*args)
        return call

    monkeypatch.setattr(measures.AtomicMeasure, "__init__", counted("__init__", init))
    for module in list(sys.modules.values()):
        if module.__name__.startswith("cantordyn") and \
                getattr(module, "convex_combine", None) is convex_combine:
            monkeypatch.setattr(module, "convex_combine", counted("convex_combine", convex_combine))
    assert main(["analyze", "--config", cfg, "--suite", "all",
                 "--out", str(tmp_path)]) == 0
    assert calls == []
    report = json.loads((tmp_path / "report_all.json").read_text())
    report.pop("timings")
    payload = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == expected


# sha256 of the map.json that generate writes
MAP_DIGESTS = {
    "balloon": (BALLOON_CONFIG,
                "162a1cb7131fc84d3f971867a8ec831e7519dbef798ee3bf959679707326de0d"),
    "dumbbell": (DUMBBELL_CONFIG,
                 "f1a83022a55dd8e71f7217a10952eefc698b45448c25b4d7cf9a42da1d9880a4"),
}


@pytest.mark.parametrize("name", sorted(MAP_DIGESTS))
def test_generated_map_files_are_pinned(tmp_path, name):
    config, expected = MAP_DIGESTS[name]
    cfg = _write_config(tmp_path, config)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = (tmp_path / "map.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == expected


@pytest.mark.parametrize("key, value", [("kind", "Dumbbell"), ("format", "cantordyn-map-v0")])
def test_analyze_rejects_a_foreign_map_file(tmp_path, capsys, key, value):
    # loaded, a "Dumbbell" map would skip the shadowing suite's
    # dumbbell-only refutation and pass
    cfg = _write_config(tmp_path, DUMBBELL_CONFIG)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    map_path = tmp_path / "map.json"
    data = json.loads(map_path.read_text())
    data[key] = value
    map_path.write_text(json.dumps(data))
    assert main(["analyze", "--config", cfg, "--suite", "shadowing",
                 "--out", str(tmp_path)]) == 3
    assert "not a balloon or dumbbell map" in capsys.readouterr().err
    assert not (tmp_path / "report_shadowing.json").exists()


def _first_component(data):
    return data["levels"][0]["components"][0]


# each edit of a generated dumbbell map; one that returns a value replaces it
MALFORMED_MAPS = {
    "not-an-object": lambda data: [],
    "non-integer-q": lambda data: data["levels"][0].update(q="2"),
    "rule-not-a-pair": lambda data: data["rules"][0].append("1"),
    "cells-as-a-string": lambda data: _first_component(data).update(left="00000001"),
    "kind-as-a-list": lambda data: data.update(kind=["dumbbell"]),
    "rules-as-a-string": lambda data: data.update(rules="01"),
    "levels-as-an-object": lambda data: data.update(levels={}),
    "level-as-a-list": lambda data: data["levels"].__setitem__(0, []),
    "components-as-a-string": lambda data: data["levels"][0].update(components="ab"),
    "component-as-a-list": lambda data: data["levels"][0]["components"].__setitem__(0, []),
    "parent-as-a-string": lambda data: _first_component(data).update(parent="0"),
}


@pytest.mark.parametrize("fault", sorted(MALFORMED_MAPS))
def test_analyze_rejects_a_malformed_map_file(tmp_path, capsys, fault):
    cfg = _write_config(tmp_path, DUMBBELL_CONFIG)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    map_path = tmp_path / "map.json"
    data = json.loads(map_path.read_text())
    changed = MALFORMED_MAPS[fault](data)
    map_path.write_text(json.dumps(data if changed is None else changed))
    assert main(["analyze", "--config", cfg, "--suite", "shadowing",
                 "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "report_shadowing.json").exists()


def test_declined_suite_keeps_the_others(tmp_path):
    # no certified level of this tower has mesh below 1/4, so recurrence
    # declines, before its first certificate
    cfg = _write_config(tmp_path, DUMBBELL_CONFIG.replace("eps = 1/3", "eps = 1/4"))
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", cfg, "--suite", "all",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report_all.json").read_text())
    failed = [c for c in report["certificates"] if not c["passed"]]
    assert failed == [{
        "operation": "suite_recurrence",
        "passed": False,
        "verdict": "declined",
        "parameters": {},
        "witnesses": {"error": "no certified level has mesh below 1/4"},
        "details": {},
    }]
    # recurrence is the last suite: its decline is its only certificate
    assert report["certificates"][-1] == failed[0]
    operations = {c["operation"] for c in report["certificates"]}
    assert {"li_yorke_scan", "entropy_growth", "chain_connection",
            "transitivity_check", "weak_shadowing_refutation"} <= operations
    assert not {"periodic_measures", "consistency_check", "loop_support_check",
                "recurrence_certificate", "transient_perturbation",
                "approx_by_periodic"} & operations


def test_period_off_the_loop_declines_before_the_first_certificate(tmp_path):
    # the balloon loops have length 2: period 1 has measures, period 3 none
    cfg = _write_config(tmp_path, BALLOON_CONFIG.replace("periods = 1, 2", "periods = 1, 3"))
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", cfg, "--suite", "recurrence",
                 "--out", str(tmp_path)]) == 2
    certificates = json.loads((tmp_path / "report_recurrence.json").read_text())["certificates"]
    assert [(c["operation"], c["verdict"], c["witnesses"]) for c in certificates] == [
        ("suite_recurrence", "declined", {"error": "period 3 does not divide the loop length 2"})]


def test_single_dumbbell_declines_shadowing_before_the_first_certificate(tmp_path):
    # one dumbbell has no second component to shadow across
    cfg = _write_config(tmp_path, DUMBBELL_CONFIG.replace("count = 2", "count = 1"))
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", cfg, "--suite", "shadowing",
                 "--out", str(tmp_path)]) == 2
    certificates = json.loads((tmp_path / "report_shadowing.json").read_text())["certificates"]
    assert [(c["operation"], c["verdict"], c["witnesses"]) for c in certificates] == [
        ("suite_shadowing", "declined", {"error": "need at least two dumbbell components"})]


def test_one_cell_path_declines_recurrence_before_the_first_certificate(tmp_path):
    # a balloon path of one cell leaves no transient cell to perturb into
    cfg = _write_config(tmp_path, BALLOON_CONFIG.replace(
        "levels = 3:2, 5:2\ncounts = 2, 4", "levels = 1:1\ncounts = 1").replace(
        "eps = 1/4", "eps = 1").replace("periods = 1, 2", "periods = 1"))
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", cfg, "--suite", "recurrence",
                 "--out", str(tmp_path)]) == 2
    certificates = json.loads((tmp_path / "report_recurrence.json").read_text())["certificates"]
    assert [(c["operation"], c["verdict"], c["witnesses"]) for c in certificates] == [
        ("suite_recurrence", "declined", {"error": "perturbation needs a path of length at "
                                                   "least 2 so the mass lands in a transient cell"})]


def _certificates(tmp_path, cfg, suite) -> tuple[int, list]:
    code = main(["analyze", "--config", cfg, "--suite", suite, "--out", str(tmp_path)])
    return code, json.loads((tmp_path / f"report_{suite}.json").read_text())["certificates"]


def _failure(suite, verdict, error) -> dict:
    return {"operation": f"suite_{suite}", "passed": False, "verdict": verdict,
            "parameters": {}, "witnesses": {"error": error}, "details": {}}


def test_a_decline_after_a_certificate_is_the_suites_only_certificate(tmp_path):
    # the loops have length 2 at level 0 and 6 at level 1: the periodic
    # measures of period 1 hold, and then the level-0 measure of the
    # consistency check is not periodic
    cfg = _write_config(tmp_path, BALLOON_CONFIG.replace(
        "levels = 3:2, 5:2\ncounts = 2, 4", "levels = 3:2, 6:3\ncounts = 1, 2").replace(
        "eps = 1/4", "eps = 1/3"))
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    decline = _failure("recurrence", "declined",
                       "measure is not exactly periodic at this level; the tower's loop "
                       "lengths must be constant at and below the chosen level")
    assert _certificates(tmp_path, cfg, "recurrence") == (2, [decline])
    # every other suite gives what it gives alone
    expected = []
    for suite in cli._RUNNERS:
        if suite != "recurrence":
            code, certificates = _certificates(tmp_path, cfg, suite)
            assert code == 0 and certificates
            expected += certificates
    assert _certificates(tmp_path, cfg, "all") == (2, expected + [decline])


def test_a_failed_certification_keeps_the_certificates_that_held(tmp_path, monkeypatch):
    # a solver fault inside a suite once ended the whole run with exit 3
    # and no report
    cfg = _write_config(tmp_path, BALLOON_CONFIG)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    code, expected = _certificates(tmp_path, cfg, "all")
    assert code == 0
    [index] = [i for i, c in enumerate(expected) if c["operation"] == "chain_continuity_test"]

    def fault(*args):
        raise CertificationError("backends disagree: 1/2 vs 1/3")

    monkeypatch.setattr(cli, "chain_continuity_test", fault)
    failure = _failure("chains", "certification_failed", "backends disagree: 1/2 vs 1/3")
    assert _certificates(tmp_path, cfg, "all") == (
        2, expected[:index] + [failure] + expected[index + 1:])
    assert (tmp_path / "summary_all.csv").exists()


def test_an_exhausted_budget_keeps_the_certificates_that_held(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, BALLOON_CONFIG)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    code, expected = _certificates(tmp_path, cfg, "recurrence")
    assert code == 0 and expected[-1]["operation"] == "approx_by_periodic"

    def exhausted(*args):
        raise ResourceBudgetError("no return time within the orbit budget")

    monkeypatch.setattr(cli, "approx_by_periodic", exhausted)
    failure = _failure("recurrence", "resource_budget_exceeded",
                       "no return time within the orbit budget")
    assert _certificates(tmp_path, cfg, "recurrence") == (2, expected[:-1] + [failure])


# each edit of the balloon config that makes the commands exit 3 before any
# suite runs: a config-file or [map] error, and the key its error names
MALFORMED_CONFIGS = {
    "map-levels-not-a-number": ("levels = 3:2, 5:2", "levels = 3:x", "levels"),
    "map-counts-zero": ("counts = 2, 4", "counts = 0, 2", "counts"),
    "map-levels-negative-q": ("levels = 3:2, 5:2\ncounts = 2, 4", "levels = 3:-1\ncounts = 2",
                              "levels"),
    "map-levels-negative-depth": ("levels = 3:2, 5:2\ncounts = 2, 4",
                                  "levels = -1:2\ncounts = 2", "levels"),
    "map-dumbbell-negative-q": ("kind = balloon\nlevels = 3:2, 5:2",
                                "kind = dumbbell\nlevel = 4:-1", "level"),
    "map-dumbbell-count-zero": ("kind = balloon\nlevels = 3:2, 5:2",
                                "kind = dumbbell\nlevel = 4:2\ncount = 0", "count"),
    "map-dumbbell-bar-zero": ("kind = balloon\nlevels = 3:2, 5:2",
                              "kind = dumbbell\nlevel = 4:2\nbar_length = 0", "bar_length"),
    "no-section-header": ("\n[map]\n", "\n", "kind"),
    "repeated-key": ("eps = 1/4", "eps = 1/4\neps = 1/3", "eps"),
}

# each invalid [analysis] value: its key, the value and the start of the
# error it declines with; a value that does not parse is quoted.  Every key
# has a value that does not parse (but backend, which any text parses as)
# and one that its check refuses; every list key also has an empty list and
# a bad value after a valid one
INVALID_VALUES = {
    "level-not-an-integer": ("level", "x", "[analysis] level = 'x': "),
    "level-above-the-levels": ("level", "5", "[analysis] level = 5 is not a certified level"),
    "level-negative": ("level", "-1", "[analysis] level = -1 is not a certified level"),
    "eps-not-a-rational": ("eps", "abc", "[analysis] eps = 'abc': "),
    "eps-0": ("eps", "0", "[analysis] eps = 0 is not positive"),
    "eps-negative": ("eps", "-1", "[analysis] eps = -1 is not positive"),
    "delta-over-zero": ("delta", "1/0", "[analysis] delta = '1/0': "),
    "delta-0": ("delta", "0", "[analysis] delta = 0 is not strictly between 0 and 1"),
    "delta-1": ("delta", "1", "[analysis] delta = 1 is not strictly between 0 and 1"),
    "grid-resolution-a-word": ("grid_resolution", "two", "[analysis] grid_resolution = 'two': "),
    "grid-resolution-0": ("grid_resolution", "0", "[analysis] grid_resolution = 0 is below 1"),
    "entropy-resolution-a-word": ("entropy_resolution", "two",
                                  "[analysis] entropy_resolution = 'two': "),
    "entropy-resolution-0": ("entropy_resolution", "0",
                             "[analysis] entropy_resolution = 0 is below 1"),
    # the entropy verdict compares the counts at the last two horizons
    "entropy-horizon-a-float": ("entropy_horizon", "4.5", "[analysis] entropy_horizon = '4.5': "),
    "entropy-horizon-negative": ("entropy_horizon", "-1",
                                 "[analysis] entropy_horizon = -1 is below 2"),
    "entropy-horizon-zero": ("entropy_horizon", "0", "[analysis] entropy_horizon = 0 is below 2"),
    "entropy-horizon-one": ("entropy_horizon", "1", "[analysis] entropy_horizon = 1 is below 2"),
    "entropy-eps-a-word": ("entropy_eps", "1/2, half", "[analysis] entropy_eps = '1/2, half': "),
    "entropy-eps-empty": ("entropy_eps", "", "[analysis] entropy_eps = '': names no value"),
    "entropy-eps-0": ("entropy_eps", "0", "[analysis] entropy_eps = 0 is not positive"),
    "entropy-eps-negative": ("entropy_eps", "-1/2, 1/2",
                             "[analysis] entropy_eps = -1/2 is not positive"),
    "entropy-eps-0-after-a-valid-one": ("entropy_eps", "1/2, 0",
                                        "[analysis] entropy_eps = 0 is not positive"),
    "chain-deltas-a-word": ("chain_deltas", "3/4, x", "[analysis] chain_deltas = '3/4, x': "),
    "chain-deltas-empty": ("chain_deltas", "", "[analysis] chain_deltas = '': names no value"),
    "chain-delta-above-1": ("chain_deltas", "1/2, 3/2",
                            "[analysis] chain_deltas = 3/2 is not strictly between 0 and 1"),
    # no pair or no length verifies no chain
    "chain-pairs-a-word": ("chain_pairs", "one", "[analysis] chain_pairs = 'one': "),
    "chain-pairs-zero": ("chain_pairs", "0", "[analysis] chain_pairs = 0 is below 1"),
    "chain-lengths-extra-a-word": ("chain_lengths_extra", "x",
                                   "[analysis] chain_lengths_extra = 'x': "),
    "chain-lengths-extra-negative": ("chain_lengths_extra", "-1",
                                     "[analysis] chain_lengths_extra = -1 is below 0"),
    "continuity-depth-a-word": ("continuity_depth", "x", "[analysis] continuity_depth = 'x': "),
    "continuity-depth-0": ("continuity_depth", "0", "[analysis] continuity_depth = 0 is below 1"),
    "backend-unknown": ("backend", "bogus",
                        "[analysis] backend = bogus is not one of enumeration, flow, auto, both"),
    "periods-a-word": ("periods", "1, two", "[analysis] periods = '1, two': "),
    "periods-empty": ("periods", "", "[analysis] periods = '': names no value"),
    "period-0-after-a-valid-one": ("periods", "2, 0", "[analysis] periods = 0 is below 1"),
    "periods-negative": ("periods", "1, -2", "[analysis] periods = -2 is below 1"),
    "lambda-a-word": ("lambda", "1/4, x", "[analysis] lambda = '1/4, x': "),
    "lambda-empty": ("lambda", "", "[analysis] lambda = '': names no value"),
    "lambda-0": ("lambda", "0", "[analysis] lambda = 0 is not strictly between 0 and 1"),
    "lambda-above-1": ("lambda", "1/4, 2",
                       "[analysis] lambda = 2 is not strictly between 0 and 1"),
}

CONFIGS = {"balloon": BALLOON_CONFIG, "dumbbell": DUMBBELL_CONFIG}


def _analyze_all(out, config) -> tuple[int, list]:
    """The exit code and the certificates of ``analyze --suite all`` on a
    freshly generated map in ``out``."""
    out.mkdir(exist_ok=True)
    cfg = str(out / "config.ini")
    with open(cfg, "w") as fh:
        config.write(fh)
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    code = main(["analyze", "--config", cfg, "--suite", "all", "--out", str(out)])
    return code, json.loads((out / "report_all.json").read_text())["certificates"]


def _parsed(text: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    cfg.read_string(text)
    return cfg


@pytest.fixture(scope="module")
def valid_runs(tmp_path_factory):
    """Each suite's certificates on each valid test config."""
    runs = {}
    for name, config in CONFIGS.items():
        out = tmp_path_factory.mktemp(name)
        code, certificates = _analyze_all(out, _parsed(config))
        assert code == 0
        for suite in cli._RUNNERS:
            assert main(["analyze", "--config", str(out / "config.ini"), "--suite", suite,
                         "--out", str(out)]) == 0
            report = json.loads((out / f"report_{suite}.json").read_text())
            runs[name, suite] = report["certificates"]
        # only the chains suite draws from the seeded generator, so the
        # suites of one run give the certificates they give alone
        assert certificates == [c for suite in cli._RUNNERS for c in runs[name, suite]]
    return runs


def test_every_analysis_key_has_invalid_values():
    for key, (parse, default, _) in cli._ANALYSIS.items():
        errors = {value: error for k, value, error in INVALID_VALUES.values() if k == key}
        unparsed = [value for value, error in errors.items()
                    if error.startswith(f"[analysis] {key} = '")]
        assert (key == "backend") != bool(unparsed), key
        assert len(unparsed) < len(errors), key
        if isinstance(parse(default), list):
            assert "" in unparsed, key
            assert any("," in value and value not in unparsed for value in errors), key


@pytest.mark.parametrize("fault", sorted(MALFORMED_CONFIGS) + sorted(INVALID_VALUES))
def test_malformed_config_ends_without_a_traceback(tmp_path, capsys, valid_runs, fault):
    if fault in INVALID_VALUES:
        # on either map, every suite that reads the key declines before its
        # first certificate, and every other suite gives what it gives on
        # the valid config
        key, value, error = INVALID_VALUES[fault]
        for name, config in CONFIGS.items():
            cfg = _parsed(config)
            cfg["analysis"][key] = value
            code, certificates = _analyze_all(tmp_path / name, cfg)
            assert code == 2
            expected = []
            for suite, (_, keys) in cli._RUNNERS.items():
                if key not in keys:
                    expected += valid_runs[name, suite]
                    continue
                witnesses = certificates[len(expected)]["witnesses"]
                assert witnesses["error"].startswith(error), witnesses
                expected.append({"operation": f"suite_{suite}", "passed": False,
                                 "verdict": "declined", "parameters": {},
                                 "witnesses": witnesses, "details": {}})
            assert certificates == expected
        return
    old, new, key = MALFORMED_CONFIGS[fault]
    assert old in BALLOON_CONFIG
    cfg = _write_config(tmp_path, BALLOON_CONFIG.replace(old, new, 1))
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err, err
    assert not (tmp_path / "map.json").exists()
    # analyze reads no [map] section, and no map was written
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("config, old, new, suite, error", [
    (BALLOON_CONFIG, "continuity_depth = 3", "continuity_depth = 0", "chains",
     "[analysis] continuity_depth = 0 is below 1"),
    (BALLOON_CONFIG, "eps = 1/4", "eps = -1", "chains", "[analysis] eps = -1 is not positive"),
    (DUMBBELL_CONFIG, "eps = 1/3", "eps = 0", "shadowing", "[analysis] eps = 0 is not positive"),
    (DUMBBELL_CONFIG, "eps = 1/3", "eps = -1", "shadowing",
     "[analysis] eps = -1 is not positive"),
    (BALLOON_CONFIG, "entropy_eps = 1/2", "entropy_eps = 0", "entropy",
     "[analysis] entropy_eps = 0 is not positive"),
    (BALLOON_CONFIG, "entropy_eps = 1/2", "entropy_eps = -1/2, 1/2", "entropy",
     "[analysis] entropy_eps = -1/2 is not positive"),
    (BALLOON_CONFIG, "periods = 1, 2", "periods = 2, 0", "recurrence",
     "[analysis] periods = 0 is below 1"),
    (BALLOON_CONFIG, "periods = 1, 2", "periods = 1, -2", "recurrence",
     "[analysis] periods = -2 is below 1"),
], ids=["continuity-depth-0", "continuity-eps-negative", "shadowing-eps-0",
        "shadowing-eps-negative", "entropy-eps-0", "entropy-eps-negative", "periods-zero",
        "periods-negative"])
def test_degenerate_values_decline_instead_of_passing(tmp_path, config, old, new, suite, error):
    # each value once made its verdict hold vacuously: run alone, the suite
    # declines with an error that names the value, and the run exits 2
    assert old in config
    cfg = _write_config(tmp_path, config.replace(old, new, 1))
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", cfg, "--suite", suite, "--out", str(tmp_path)]) == 2
    certificates = json.loads((tmp_path / f"report_{suite}.json").read_text())["certificates"]
    assert [(c["operation"], c["verdict"], c["witnesses"]) for c in certificates] == [
        (f"suite_{suite}", "declined", {"error": error})]


@pytest.mark.parametrize("old, new, suite, error", [
    ("chain_deltas = 3/4", "chain_deltas = 1/2, 3/2", "chains",
     "[analysis] chain_deltas = 3/2 is not strictly between 0 and 1"),
    ("lambda = 1/4, 1/8", "lambda = 1/4, 2", "recurrence",
     "[analysis] lambda = 2 is not strictly between 0 and 1"),
    ("periods = 1, 2", "periods = 2, 0", "recurrence", "[analysis] periods = 0 is below 1"),
], ids=["chain-delta-above-1", "lambda-above-1", "period-0-after-a-valid-one"])
def test_out_of_range_value_declines_before_the_first_certificate(tmp_path, old, new, suite,
                                                                 error):
    # a valid value before the bad one once emitted its certificates first
    assert old in BALLOON_CONFIG
    cfg = _write_config(tmp_path, BALLOON_CONFIG.replace(old, new, 1))
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", cfg, "--suite", suite, "--out", str(tmp_path)]) == 2
    certificates = json.loads((tmp_path / f"report_{suite}.json").read_text())["certificates"]
    assert [(c["operation"], c["verdict"], c["witnesses"]) for c in certificates] == [
        (f"suite_{suite}", "declined", {"error": error})]


def test_unknown_analysis_key_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, BALLOON_CONFIG.replace("entropy_horizon", "entropy_horizn", 1))
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "error: [analysis] entropy_horizn is not a known key\n"
    assert not (tmp_path / "report_all.json").exists()


def _readme_config(tmp_path, name="Example"):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    config = readme.split(f"{name} config:\n\n```ini\n")[1].split("```")[0]
    return _write_config(tmp_path, config)


def test_readme_analysis_table_matches_the_cli_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| Key | Default | Allowed values | Read by |\n|---|---|---|---|\n")[1]
    rows = [line.split(" | ") for line in table.split("\n\n")[0].splitlines()]
    assert [(key.strip("|` "), default.strip("`"), suites.strip(" |").split(", "))
            for key, default, _, suites in rows] == [
        (key, default, [suite for suite, (_, keys) in cli._RUNNERS.items() if key in keys])
        for key, (_, default, _) in cli._ANALYSIS.items()]


def test_readme_example_config_liyorke(tmp_path):
    # the example config of README.md: 24 cells at level 0, 300 grid measures
    cfg = _readme_config(tmp_path)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    # only this suite: the others have tests of their own
    assert main(["analyze", "--config", cfg, "--suite", "liyorke",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_liyorke.json").read_text())
    [cert] = report["certificates"]
    assert cert["verdict"] == "no_li_yorke_pairs"
    assert cert["witnesses"]["counts"] == {
        "asymptotic": 432, "separated_below": 44418, "li_yorke_pair": 0,
    }
    assert cert["details"] == {"preperiod": 6, "period": 6}


def test_generate_runs_without_numpy(tmp_path):
    # only the grid scans need numpy; building and writing a map does not
    cfg = _readme_config(tmp_path)
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from cantordyn.cli import main\n"
        f"sys.exit(main(['generate', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]))\n"
    )
    src = str(Path(cantordyn.__file__).resolve().parents[1])
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "map.json").exists()
    # with numpy present the package still exports the grid scan
    from cantordyn import li_yorke_scan, simplex_grid

    assert callable(li_yorke_scan) and callable(simplex_grid)


@pytest.mark.parametrize("suite", ["chains", "shadowing", "recurrence"])
def test_readme_example_config_suites(tmp_path, suite):
    # every README suite but entropy, whose verdict fails at horizon 6 (its
    # own test below)
    cfg = _readme_config(tmp_path)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", cfg, "--suite", suite,
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / f"report_{suite}.json").read_text())
    assert report["certificates"]
    assert all(c["passed"] for c in report["certificates"])


def test_readme_example_config_entropy(tmp_path):
    # the current outcome, not a settled verdict: the counts at eps = 1/2
    # still grow at horizon 6, so the suite fails and the run exits 2
    cfg = _readme_config(tmp_path)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", cfg, "--suite", "entropy",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report_entropy.json").read_text())
    assert [(c["operation"], c["parameters"], c["verdict"],
             c["witnesses"]["separated_counts"]) for c in report["certificates"]] == [
        ("entropy_growth", {"eps": eps, "exact": False, "grid_size": 300, "horizon": 6},
         verdict, dict(zip("123456", counts)))
        for eps, verdict, counts in (
            ("1/2", "growth_detected", [10, 21, 36, 55, 78, 105]),
            ("1/4", "zero_growth_at_horizon", [136, 300, 300, 300, 300, 300]))]


def test_readme_dumbbell_config_passes_every_suite(tmp_path):
    cfg = _readme_config(tmp_path, "Dumbbell")
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert main(["analyze", "--config", cfg, "--suite", "all", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_all.json").read_text())
    assert report["summary"] == {"total": 15, "passed": 15}
    assert {"weak_shadowing_refutation", "recurrence_certificate", "approx_by_periodic"} <= {
        c["operation"] for c in report["certificates"]}


def test_report_timings_count_the_memos(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, BALLOON_CONFIG)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    # the memos and tables live as long as the process: start from empty ones
    tables.reset()
    # count every call of both solvers, in each module that imported either
    calls = []

    def counting(solve):
        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)
        return counted

    for name in ("prohorov", "prohorov_distance"):
        solve = getattr(measures, name)
        counted = counting(solve)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("cantordyn.") and \
                    getattr(module, name, None) is solve:
                monkeypatch.setattr(module, name, counted)
    assert main(["analyze", "--config", cfg, "--suite", "chains",
                 "--out", str(tmp_path)]) == 0
    [stage] = json.loads((tmp_path / "report_chains.json").read_text())["timings"]
    assert stage["stage"] == "_suite_chains"
    assert set(stage) == {"stage", "ms", "solves", "solve_hits",
                          "pushforwards", "pushforward_hits", "separations",
                          "separation_hits", "images", "image_hits", "chains",
                          "chain_hits", "cycles", "cycle_hits", "orbits", "orbit_hits",
                          "distance_rows", "distance_row_hits"}
    # the chain of length k + 1 extends the record of the chain of length k
    assert stage["solves"] > 0 and stage["chain_hits"] > 0
    assert stage["pushforwards"] > 0 and stage["pushforward_hits"] > 0
    # each call is one integer problem solved or one memo hit
    assert stage["solves"] + stage["solve_hits"] == len(calls)
    # every word pair and (map, word) pair is computed once, then looked up
    for table, computed, hits in ((separation, "separations", "separation_hits"),
                                  (_rewritten, "images", "image_hits")):
        info = table.cache_info()
        assert stage[computed] == info.misses == info.currsize > 0
        assert stage[hits] == info.hits > 0


def test_shadowing_certifies_each_orbit_once(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path, DUMBBELL_CONFIG)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    tables.reset()
    targets, joint = [], []
    to_target, solved = dynamics.orbit_distance_to_target, orbits._solved_window

    def to_target_counted(f, mu, target):
        targets.append((f, mu, target))
        return to_target(f, mu, target)

    def solved_counted(f, mu, nu, nu_moves):
        joint.append((f, mu, nu))
        return solved(f, mu, nu, nu_moves)

    monkeypatch.setattr(dynamics, "orbit_distance_to_target", to_target_counted)
    monkeypatch.setattr(orbits, "_solved_window", solved_counted)
    assert main(["analyze", "--config", cfg, "--suite", "shadowing",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_shadowing.json").read_text())
    [stage] = report["timings"]
    [refutation] = [c for c in report["certificates"]
                    if c["operation"] == "weak_shadowing_refutation"]
    grid_size = refutation["parameters"]["grid_size"]
    # each grid measure's orbit under h and its inverse, read again for the
    # second anchor
    assert stage["orbits"] == stage["orbit_hits"] == 2 * grid_size
    assert len(targets) == 4 * grid_size
    # the joint engine runs exactly for the targets that fail the own window
    fallbacks = []
    for f, mu, target in targets:
        record = orbits._own_orbit(f, mu)
        if not orbits._keeps_window(record[4], target.support):
            fallbacks.append((f, mu, target))
    assert joint == fallbacks


def test_reports_are_deterministic(tmp_path):
    cfg = _write_config(tmp_path, BALLOON_CONFIG)
    main(["generate", "--config", cfg, "--out", str(tmp_path)])
    main(["analyze", "--config", cfg, "--suite", "chains", "--out", str(tmp_path)])
    first = json.loads((tmp_path / "report_chains.json").read_text())
    main(["analyze", "--config", cfg, "--suite", "chains", "--out", str(tmp_path)])
    second = json.loads((tmp_path / "report_chains.json").read_text())
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_generate_infeasible_config_exits_3(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, BALLOON_CONFIG.replace("levels = 3:2, 5:2", "levels = 2:3")
    )
    cfg_text = Path(cfg).read_text().replace("counts = 2, 4", "counts = 1")
    Path(cfg).write_text(cfg_text)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "error" in capsys.readouterr().err


def test_analyze_without_map_exits_3(tmp_path):
    cfg = _write_config(tmp_path, BALLOON_CONFIG)
    assert main(["analyze", "--config", cfg, "--suite", "chains",
                 "--out", str(tmp_path)]) == 3


def test_config_without_run_section_uses_the_defaults(tmp_path):
    # every [run] key has a default, map_file included
    cfg = _write_config(tmp_path, DUMBBELL_CONFIG.split("[run]")[0])
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "map.json").exists()
    assert main(["analyze", "--config", cfg, "--suite", "recurrence",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report_recurrence.json").read_text())
    assert "run" not in report["config"] and report["seed"] == 0


def test_missing_config_exits_3(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == 3


def test_prohorov_command(tmp_path, capsys):
    mu = atomic_measure({"": Fraction(1, 2), "1": Fraction(1, 2)})
    write_measure(tmp_path / "mu.measure", mu)
    write_measure(tmp_path / "nu.measure", dirac(""))
    code = main(["prohorov", str(tmp_path / "mu.measure"),
                 str(tmp_path / "nu.measure"), "--two-sided"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1/2"
    assert "two-sided: 1/2" in out


@pytest.mark.parametrize(
    "choice, expected",
    [("enumeration", "enumeration"), ("flow", "flow"), ("auto", "flow"), ("both", "flow")],
)
def test_prohorov_two_sided_backend(tmp_path, capsys, monkeypatch, choice, expected):
    # enumeration asks for the enumeration oracle; every other choice runs
    # flow, so the default "both" never meets enumeration's atom limit
    seen = []

    def fake_two_sided(mu, nu, backend):
        seen.append(backend)
        return Fraction(1, 2)

    monkeypatch.setattr(cli, "prohorov_two_sided", fake_two_sided)
    mu = atomic_measure({"": Fraction(1, 2), "1": Fraction(1, 2)})
    write_measure(tmp_path / "mu.measure", mu)
    write_measure(tmp_path / "nu.measure", dirac(""))
    code = main(["prohorov", str(tmp_path / "mu.measure"),
                 str(tmp_path / "nu.measure"), "--backend", choice, "--two-sided"])
    assert code == 0
    assert seen == [expected]
    assert "two-sided: 1/2" in capsys.readouterr().out


def test_prohorov_identical_files(tmp_path, capsys):
    write_measure(tmp_path / "mu.measure", dirac("01"))
    code = main(["prohorov", str(tmp_path / "mu.measure"),
                 str(tmp_path / "mu.measure")])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "0"


def test_prohorov_parse_error(tmp_path, capsys):
    (tmp_path / "bad.measure").write_text("01 not-a-number\n")
    write_measure(tmp_path / "mu.measure", dirac("01"))
    code = main(["prohorov", str(tmp_path / "bad.measure"),
                 str(tmp_path / "mu.measure")])
    assert code == 3
    assert "line 1" in capsys.readouterr().err


def test_report_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, BALLOON_CONFIG)
    main(["generate", "--config", cfg, "--out", str(tmp_path)])
    main(["analyze", "--config", cfg, "--suite", "liyorke", "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["report", str(tmp_path / "report_liyorke.json")]) == 0
    assert "certificates passed" in capsys.readouterr().out


def test_report_flags_failures(tmp_path, capsys):
    bad = {
        "certificates": [
            {"operation": "x", "verdict": "bad", "passed": False}
        ],
        "summary": {"total": 1, "passed": 0},
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(bad))
    assert main(["report", str(path)]) == 2
    assert "[FAIL]" in capsys.readouterr().out


def test_prohorov_distance_one(tmp_path, capsys):
    write_measure(tmp_path / "a.measure", dirac(""))
    write_measure(tmp_path / "b.measure", dirac("1"))
    assert main(["prohorov", str(tmp_path / "a.measure"),
                 str(tmp_path / "b.measure")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1"
