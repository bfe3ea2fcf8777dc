"""Deterministic discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: generator-based
processes yield :class:`~repro.sim.engine.Event` objects (timeouts,
plain events, other processes) and are resumed when those events fire.
The engine is deterministic — equal-time events fire in schedule order
— which makes every experiment in this repository exactly reproducible.
"""

from repro.sim.engine import (Environment, Event, Timeout, Process, Interrupt,
                              PeriodicCall)
from repro.sim.monitor import Monitor, CounterMonitor, UtilizationMonitor
from repro.sim.rng import RngStreams
from repro.sim.runner import SweepRunner, job_context, point_seed, resolve_jobs
from repro.sim.trace import TraceBuffer, TraceEvent

__all__ = [
    "Environment",
    "SweepRunner",
    "job_context",
    "point_seed",
    "resolve_jobs",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "PeriodicCall",
    "Monitor",
    "CounterMonitor",
    "UtilizationMonitor",
    "RngStreams",
    "TraceBuffer",
    "TraceEvent",
]
