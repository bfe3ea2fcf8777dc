"""Deterministic discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: generator-based
processes yield :class:`~repro.sim.engine.Event` objects (timeouts,
plain events, other processes) and are resumed when those events fire.
The engine is deterministic — equal-time events fire in schedule order
— which makes every experiment in this repository exactly reproducible.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.sim.engine": ("Environment", "Event", "Timeout", "Process",
                         "PeriodicCall"),
    "repro.sim.pool": ("sweep", "job_context", "resolve_jobs"),
    "repro.sim.monitor": ("CounterMonitor",),
    "repro.sim.rng": ("RngStreams",),
    "repro.sim.trace": ("TraceBuffer", "TraceEvent"),
})
