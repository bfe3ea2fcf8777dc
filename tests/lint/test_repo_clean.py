"""Meta-tests: the real tree is lint-clean, and the CI gate has teeth.

These are the tests that make reprolint load-bearing: the first keeps
``src/repro`` clean under the committed (empty) baseline forever, the
second proves the exact command CI runs fails when a determinism
violation is seeded into the tree.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

from repro.lint import all_rules, lint_paths, load_baseline
from repro.lint.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "reprolint-baseline.json"


def test_rule_catalog_is_complete():
    rules = all_rules()
    assert [r.id for r in rules] == [f"RPR{i:03d}" for i in range(1, 11)]
    for r in rules:
        assert r.name and r.rationale, r.id


def test_committed_baseline_is_empty():
    # Policy (docs/LINTING.md): new findings are fixed or suppressed
    # inline with a rationale, never baselined away.
    baseline = load_baseline(BASELINE)
    assert baseline.fingerprints == set()


def test_src_repro_is_lint_clean():
    result = lint_paths([SRC_REPRO], baseline=load_baseline(BASELINE))
    # the whole package, not a subtree
    assert result.files == len(list(SRC_REPRO.rglob("*.py")))
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.ok, f"reprolint found new violations:\n{rendered}"


def test_seeded_violation_fails_the_gate(tmp_path):
    # Replicate the CI job against a copy of the real tree with one
    # planted wall-clock read; the copy is named `repro` so logical
    # paths (and therefore rule scoping) match the real package.
    tree = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, tree)
    seeded = tree / "sim" / "seeded_violation.py"
    seeded.write_text("import time\nSTAMP = time.time()\n")

    code = main([str(tree), "--baseline", str(BASELINE)])
    assert code == 1

    # Remove the seed: the same invocation goes green again.
    seeded.unlink()
    assert main([str(tree), "--baseline", str(BASELINE)]) == 0


def test_ci_entrypoint_subprocess():
    # The literal command the CI lint job runs, against the real tree.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src/repro",
         "--format", "json"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True
