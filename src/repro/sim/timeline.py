"""FIFO servers granted by arithmetic instead of events.

A :class:`FifoTimeline` models ``c`` identical servers fed by one FIFO
queue for the pure ``request -> hold -> release`` cycle.  Because grants
are strictly FIFO *and* the hold length is known at request time, the
grant and completion instants are pure arithmetic::

    start = max(now, earliest server free)
    end   = start + hold

:meth:`FifoTimeline.charge` commits the hold and returns ``(start, end)``;
the caller sleeps until ``end`` with a single pooled timeout — or
schedules a completion callback.  Nothing is queued in the engine while
a request waits for a server, so one use costs one event instead of a
request-grant / hold-timeout / release-regrant cascade of three.

The timeline cannot express holders that keep the server across *other*
yields, nor cancellation of queued requests: every charge is granted,
in order, for exactly the hold it names.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ResourceError
from repro.sim.engine import Environment

__all__ = ["FifoTimeline"]


class FifoTimeline:
    """A finite-capacity FCFS server granted by arithmetic, not events.

    Capacity ``c`` models ``c`` identical servers with one FIFO queue: a
    charge is granted when the earliest-free server frees up, or at once
    if one is idle.

    Attributes
    ----------
    committed_time:
        Total hold-seconds ever charged (including holds extending past
        the current simulation time).
    charge_count:
        Number of charges (grants) so far.
    """

    __slots__ = ("env", "capacity", "name", "_ends", "committed_time",
                 "charge_count")

    def __init__(self, env: Environment, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ResourceError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._ends = [0.0] * capacity  # per-server busy-until instants
        self.committed_time = 0.0
        self.charge_count = 0

    # -- protocol ---------------------------------------------------------------
    def charge(self, hold: float) -> Tuple[float, float]:
        """Commit one FIFO hold of ``hold`` seconds; return (start, end)."""
        now = self.env._now
        ends = self._ends
        if len(ends) == 1:
            free = ends[0]
            start = free if free > now else now
            end = start + hold
            ends[0] = end
        else:
            idx = 0
            free = ends[0]
            for j in range(1, len(ends)):
                if ends[j] < free:
                    free = ends[j]
                    idx = j
            start = free if free > now else now
            end = start + hold
            ends[idx] = end
        self.committed_time += hold
        self.charge_count += 1
        return start, end

    # -- accounting -------------------------------------------------------------
    def busy_elapsed(self) -> float:
        """Holder-seconds consumed up to the current time.

        Charges commit their full hold up front; the not-yet-elapsed tail
        of each server's schedule is subtracted.  (The region between
        ``now`` and each server's ``end`` is contiguously busy: every
        charge starts at ``max(now, previous end)``, so committed service
        beyond ``now`` is exactly ``end - now`` per busy server.)
        """
        now = self.env._now
        future = 0.0
        for end in self._ends:
            if end > now:
                future += end - now
        return self.committed_time - future

    def utilization(self, elapsed: float = None) -> float:
        """Fraction of capacity-time used since t=0 (up to ``elapsed``
        seconds when given): :meth:`busy_elapsed` over ``t * capacity``."""
        t = self.env.now if elapsed is None else elapsed
        if t <= 0:
            return 0.0
        return self.busy_elapsed() / (t * self.capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FifoTimeline {self.name!r} capacity={self.capacity} "
                f"busy_until={max(self._ends):.9f}>")
