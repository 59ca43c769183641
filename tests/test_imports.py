"""Import-time guard: the package loads numpy and nothing heavier."""

from __future__ import annotations

import os
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
