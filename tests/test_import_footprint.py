"""Importing a module runs only that module and its real dependencies.

Each check runs in a fresh interpreter, since this suite's own imports
have long since loaded everything.  The discrete-event stack (the NTTCP
and NetPipe tools, the WAN driver, the fabric and the topologies) never
computes with NumPy, so a transfer and a ping-pong through it must load
neither NumPy nor the reporting, linting, serving or streaming layers;
see docs/PERFORMANCE.md, "Cold start".
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules the discrete-event stack must not load.
OFF_PATH = ("numpy", "repro.analysis", "repro.lint", "repro.serve",
            "repro.telemetry.stream")

DES_RUN = """
import repro.core.wanrecord, repro.net.hybrid
from repro.config import TuningConfig
from repro.net.topology import BackToBack
from repro.sim.engine import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.netpipe import netpipe_latency
from repro.tools.nttcp import nttcp_run

env = Environment()
bb = BackToBack.create(env, TuningConfig.fully_tuned(9000))
result = nttcp_run(env, TcpConnection(env, bb.a, bb.b), payload=8948,
                   count=16)
assert result.goodput_gbps > 0
env = Environment()
bb = BackToBack.create(env, TuningConfig())
pong = netpipe_latency(env, TcpConnection(env, bb.a, bb.b),
                       TcpConnection(env, bb.b, bb.a), iterations=2)
assert pong.latency_s > 0
"""


def loaded_after(code):
    """Every module name loaded once ``code`` has run in a fresh
    interpreter."""
    code += "\nimport json, sys\njson.dump(sorted(sys.modules), sys.stdout)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def off_path(modules):
    return sorted(m for m in modules
                  if any(m == name or m.startswith(name + ".")
                         for name in OFF_PATH))


def test_des_stack_loads_no_numpy_or_reporting_layers():
    modules = loaded_after(DES_RUN)
    assert "repro.tools.nttcp" in modules
    assert off_path(modules) == []


def test_knob_registry_loads_no_simulator():
    modules = loaded_after("import repro.core.knobs")
    assert "repro.core.knobs" in modules
    assert [m for m in modules if m.startswith("repro.sim")] == []
