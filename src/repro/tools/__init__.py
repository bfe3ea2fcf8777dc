"""Measurement tools: simulated analogues of the tools §3.2 measures with.

* :mod:`repro.tools.nttcp` — fixed-count payload-sweep throughput (the
  paper's primary tool).
* :mod:`repro.tools.netpipe` — ping-pong latency.
* :mod:`repro.tools.stream_bench` — memory bandwidth.
* :mod:`repro.tools.magnet` — kernel event tracing and path profiling.
* :mod:`repro.tools.tcpdump` — wire-level capture.

CPU load, the paper's load-average reading, is
:meth:`repro.hw.cpu.CpuComplex.load` over the window NTTCP resets.
"""

from repro.tools.nttcp import NttcpResult, nttcp_run
from repro.tools.netpipe import NetpipeResult, netpipe_latency
from repro.tools.stream_bench import stream_bench
from repro.tools.magnet import Magnet
from repro.tools.tcpdump import Tcpdump

__all__ = [
    "NttcpResult",
    "nttcp_run",
    "NetpipeResult",
    "netpipe_latency",
    "stream_bench",
    "Magnet",
    "Tcpdump",
]
