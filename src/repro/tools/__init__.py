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
