"""Smoke tests of ``scripts/census.py`` on one cheap experiment id.

The full census (every id, CLI path, the pool, the cache, the benchmark
and the examples) takes minutes under the tracer and stays out of the
test suite; these runs check the report's shape and what ``--check``
refuses.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "census.py"

#: Loads the census, puts the JSON keep-list read from stdin in place
#: of ``KEEP`` and runs ``pktgen --no-examples --check``.
CHECK_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("census", sys.argv[1])
census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(census)
census.KEEP = json.load(sys.stdin)
sys.exit(census.main(["pktgen", "--no-examples", "--check"]))
"""


def check_run(keep):
    """Exit status and ``CHECK`` lines of one ``--check`` run."""
    proc = subprocess.run(
        [sys.executable, "-c", CHECK_RUN, str(SCRIPT)],
        input=json.dumps(keep), capture_output=True, text=True,
        timeout=120)
    assert "FAILED" not in proc.stderr, proc.stderr
    return proc.returncode, re.findall(r"^CHECK (.*)$", proc.stdout, re.M)


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
    assert re.search(r"^  repro/__main__\.py\n(    .*\n)*\s+\d+  "
                     r"repro\.__main__\.main$", unreached, re.M)
    assert not re.search(r"\d+  repro\.sim\.engine\.Environment\.run$",
                         unreached, re.M)
    # pktgen's tuned hosts carry the raised MMRBC
    assert re.search(r"^  mmrbc = 4096  \(\d+\)$", configs, re.M)


def test_check_refuses_any_keep_list_but_the_unreached_set():
    status, lines = check_run({})
    assert status == 1
    prefix = "unreached and not keep-listed: "
    assert lines and all(line.startswith(prefix) for line in lines)
    unreached = [line[len(prefix):].split(" (")[0] for line in lines]
    assert "repro.__main__.main" in unreached
    exact = {name: "kept" for name in unreached}
    assert check_run(exact) == (0, [])
    # an unreached function missing from the keep-list
    del exact["repro.__main__.main"]
    status, lines = check_run(exact)
    assert status == 1
    assert [line.split(" (")[0] for line in lines] == [
        prefix + "repro.__main__.main"]
    # keep-list entries that were reached, or that name no function
    exact["repro.__main__.main"] = "kept"
    exact["repro.sim.engine.Environment.run"] = "kept"
    exact["repro.nowhere.gone"] = "kept"
    assert check_run(exact) == (1, [
        "keep-listed but reached: repro.sim.engine.Environment.run",
        "keep-list entry names no function: repro.nowhere.gone"])
