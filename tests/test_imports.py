"""Import-time guards: the package loads numpy and nothing heavier, and its exports resolve."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_import_leaves_scipy_unloaded():
    # importing scipy.linalg costs about 0.2 s, as much as the rest of start-up
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, spinheat, spinheat.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_builds_no_parser():
    # the parser is built on the first cli.main call, so importing costs nothing more
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import spinheat.cli as cli; print(cli.build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_cli_reports_failures_and_exits_in_one_place():
    # cli.main alone turns a failure into its stderr prefix and exit code, and
    # only the console entry calls sys.exit
    tree = ast.parse((ROOT / "src" / "spinheat" / "cli.py").read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node) is not None}

    def holders(match):  # the top-level definition around each match, once per match
        return [getattr(stmt, "name", "<module>") for stmt in tree.body
                for node in ast.walk(stmt) if id(node) not in docstrings and match(node)]

    for prefix in ("config error:", "solver failure:"):
        assert holders(lambda node: isinstance(node, ast.Constant)
                       and isinstance(node.value, str) and prefix in node.value) == ["main"]
    assert holders(lambda node: isinstance(node, ast.Attribute) and node.attr == "exit"
                   and isinstance(node.value, ast.Name) and node.value.id == "sys") == ["entry"]


def test_exports_resolve_and_cover_the_readme():
    import spinheat

    names = spinheat.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(spinheat, name)]
    assert not missing
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "spinheat"
        for alias in node.names
    }
    assert imported and imported <= set(names)


# public names that nothing outside their definition uses, each kept for its reason
UNCALLED_EXPORTS = {
    # the paper's three-site rate formulas in closed form, a published result kept public
    # beside energy_current_closed_form_3site; the tests hold the general rates to it
    "closed_form_currents_3site",
}


def test_every_export_has_a_caller():
    # a public name that only its own definition and the package __init__ mention is code
    # that nothing needs; the package, the demos, the benchmark and the README count
    import spinheat

    init = ROOT / "src" / "spinheat" / "__init__.py"
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in sorted(p for top in ("src", "demos", "bench") for p in (ROOT / top).rglob("*.py")):
        if path == init:
            continue
        text = path.read_text()
        lines = text.splitlines()
        own = [set() for _ in lines]  # the names of the definitions around each line
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for number in range(node.lineno - 1, node.end_lineno):
                    own[number].add(node.name)
        for line, names in zip(lines, own):
            used.update(set(re.findall(r"\w+", line)) - names)
    assert UNCALLED_EXPORTS <= set(spinheat.__all__)
    assert sorted(set(spinheat.__all__) - used - UNCALLED_EXPORTS) == []


def test_test_and_benchmark_imports_are_declared():
    # a module the tests or the benchmark import is the standard library's,
    # the package, one of their own or a declared dependency, so that
    # installing the package with its test extra runs them
    tomllib = pytest.importorskip("tomllib")  # the standard library's from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    files = [path for top in ("tests", "bench") for path in (ROOT / top).rglob("*.py")]
    local = {path.stem for path in files} | {path.parent.name for path in files}
    imported = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    allowed = set(sys.stdlib_module_names) | {"spinheat"} | local | declared
    assert {"mpmath", "hypothesis", "numpy"} <= imported
    assert sorted(imported - allowed) == []
