"""Smoke test of ``scripts/golden_projection.py`` on one cheap id.

Comparing a tree with itself must find every projected digest equal;
the full comparison of two trees runs every id and stays out of the
test suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "golden_projection.py"


def test_tree_against_itself_is_equal():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--ids", "tab1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "tab1             equal" in proc.stdout
    assert "1/1 ids equal" in proc.stdout
