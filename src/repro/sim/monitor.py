"""Event counters for simulations.

:class:`CounterMonitor` is the data path's running counter: each event
costs one :meth:`~CounterMonitor.add` (a total and an event count) and
reads no clock.  Busy fractions come from ``FifoTimeline.utilization()``
and ``CpuComplex.load()``.
"""

from __future__ import annotations

__all__ = ["CounterMonitor"]


class CounterMonitor:
    """A cheap running counter: a total and the number of events."""

    __slots__ = ("name", "total", "events")

    def __init__(self, name: str = ""):
        self.name = name
        self.total = 0.0
        self.events = 0

    def add(self, amount: float = 1.0) -> None:
        """Count one event of size ``amount``."""
        self.total += amount
        self.events += 1
