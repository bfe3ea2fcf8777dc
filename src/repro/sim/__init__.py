"""Deterministic discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: generator-based
processes yield :class:`~repro.sim.engine.Event` objects (timeouts,
plain events, other processes) and are resumed when those events fire.
The engine is deterministic — equal-time events fire in schedule order
— which makes every experiment in this repository exactly reproducible.
"""

from repro.sim.engine import (Environment, Event, Timeout, Process, Interrupt,
                              PeriodicCall)
from repro.sim.monitor import CounterMonitor
from repro.sim.pool import job_context, resolve_jobs, sweep
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceBuffer, TraceEvent

__all__ = [
    "Environment",
    "sweep",
    "job_context",
    "resolve_jobs",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "PeriodicCall",
    "CounterMonitor",
    "RngStreams",
    "TraceBuffer",
    "TraceEvent",
]
