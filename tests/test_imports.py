"""Import-time guards: the package loads numpy and nothing heavier, and its exports resolve."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

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
