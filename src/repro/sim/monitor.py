"""Event counters for simulations.

:class:`CounterMonitor` is the data path's running counter: each event
costs one :meth:`~CounterMonitor.add` (a total, an event count and the
first/last timestamps), and rates are computed afterwards.  Busy
fractions come from ``FifoTimeline.utilization()`` and
``CpuComplex.load()``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MeasurementError
from repro.sim.engine import Environment

__all__ = ["CounterMonitor"]


class CounterMonitor:
    """A cheap running counter with first/last-event timestamps."""

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self.total = 0.0
        self.events = 0
        self.first_time: Optional[float] = None
        self.last_time: Optional[float] = None

    def add(self, amount: float = 1.0, time: Optional[float] = None) -> None:
        """Accumulate ``amount`` at the current time (or an explicit
        ``time`` — batched data paths stamp the instant the modelled
        action completed, which may precede the callback running)."""
        now = self.env.now if time is None else time
        if self.first_time is None:
            self.first_time = now
        self.last_time = now
        self.total += amount
        self.events += 1

    def rate(self, start: Optional[float] = None,
             end: Optional[float] = None) -> float:
        """``total / (end - start)``; defaults to the observed span."""
        if self.first_time is None:
            raise MeasurementError(f"counter {self.name!r} never fired")
        t0 = self.first_time if start is None else start
        t1 = self.last_time if end is None else end
        span = t1 - t0
        if span <= 0:
            raise MeasurementError(
                f"counter {self.name!r} span is zero; cannot compute a rate")
        return self.total / span
