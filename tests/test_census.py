"""Smoke test of ``scripts/census.py`` on one cheap experiment id.

The full census (every id and example) takes minutes under the tracer
and stays out of the test suite; this run checks the report's shape.
"""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "census.py"


def test_census_reports_unreached_functions_and_config_values():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "pktgen", "--no-examples"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    defined = int(re.search(r"functions defined under src/repro: (\d+)",
                            out).group(1))
    called = int(re.search(r"called: (\d+)", out).group(1))
    assert 0 < called < defined
    unreached, configs = out.split("TuningConfig values off their default")
    # the CLI is never entered; the engine's dispatch loop always is
    assert re.search(r"^  repro/__main__\.py\n(    .*\n)*\s+\d+  main$",
                     unreached, re.M)
    assert not re.search(r"\d+  Environment\.run$", unreached, re.M)
    # pktgen's tuned hosts carry the raised MMRBC
    assert re.search(r"^  mmrbc = 4096  \(\d+\)$", configs, re.M)
