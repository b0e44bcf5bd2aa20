"""Source checks: every exported name has a use outside the tests, no
library module, test or demo imports a name it never uses, and no CLI suite
reads the config."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cantordyn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _used_names(tree) -> set[str]:
    """Every name read in the tree, as a bare name or an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _exports() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _reached() -> set[str]:
    """Names reached outside the tests: from module-level code of src/, a
    demo or a word of README.md, and then from every top-level definition
    of src/ that is reached, so a name that only an unreached definition
    uses is not reached either."""
    uses: dict[str, set[str]] = {}
    reached = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in MODULES:
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                uses.setdefault(stmt.name, set()).update(_used_names(stmt))
            else:
                reached |= _used_names(stmt)
    for path in sorted((ROOT / "demos").glob("*.py")):
        reached |= _used_names(ast.parse(path.read_text()))
    frontier = reached
    while frontier:
        frontier = set().union(*(uses.get(name, ()) for name in frontier)) - reached
        reached |= frontier
    return reached


def test_every_export_is_reached_outside_the_tests():
    reached = _reached()
    unreached = [name for name in _exports() if name not in reached]
    assert not unreached, f"exported but reached by no module, demo or README: {unreached}"


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in MODULES + SCRIPTS:
        tree = ast.parse(path.read_text())
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert not unused, f"imported but never used: {unused}"


def test_no_cli_suite_takes_or_reads_the_config():
    # a suite reads only the values that run_suite parsed and checked
    # through cli's key table before the suite's first certificate
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    suites = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_suite_")]
    assert len(suites) == 5
    for node in suites:
        assert [arg.arg for arg in node.args.args] == ["tower", "values", "rng"], node.name
        read = _used_names(node) & {"cfg", "configparser", "load_config", "_read", "_analysis",
                                    "_ANALYSIS"}
        assert not read, f"{node.name} reads {read}"
