"""Pass timing normalised to the host's momentary speed.

On a shared host the same pass can take 60% longer when a neighbour
loads the core, and such spells last from a fraction of a second to
tens of seconds, so raw pass times spread far more between runs than
any change worth measuring.  A fixed reference loop slows down with the
simulator in those spells: the ratio of the two holds to a few percent.

:class:`SpeedClock` therefore splits a pass into intervals with a
``SIGALRM`` timer.  At every tick the signal handler times
:func:`reference` and closes the interval; the pass's normalised time
is each interval's host seconds scaled by ``REFERENCE_S`` over the mean
of the reference times measured on either side of it.  It reads as the
host seconds the pass takes when the reference runs in ``REFERENCE_S``.

The handler touches no simulator state, so the simulated output is the
same with or without the clock (the runner checks this by digest).
"""

from __future__ import annotations

import gc
import heapq
import signal
from time import perf_counter
from typing import Any, List, Optional

#: Seconds :func:`reference` takes on an idle core of the 2-vCPU x86-64
#: sandbox (Python 3.11) where the benchmark was tuned; it only sets the
#: scale of the normalised times.
REFERENCE_S = 0.0045

#: Host seconds between ticks.
INTERVAL_S = 0.1

#: Events the reference loop dispatches.
REFERENCE_EVENTS = 4096


class _Event:
    __slots__ = ("at", "fn", "left")

    def __init__(self, at: float, fn: Any, left: int):
        self.at = at
        self.fn = fn
        self.left = left


def _reference_loop(n_events: int) -> int:
    """A fixed miniature of the engine's work: a heap of slotted events
    whose callbacks schedule the next one, in 512 ping-pong chains (a
    queue about as deep as a BDP-sized window keeps)."""
    queue: List[Any] = []
    seq = 0
    done = 0

    def send(ev: _Event) -> None:
        nonlocal seq, done
        done += 1
        seq += 1
        at = ev.at + 1.2e-6
        heapq.heappush(queue, (at, seq, _Event(at, ack, ev.left)))

    def ack(ev: _Event) -> None:
        nonlocal seq, done
        done += 1
        if ev.left:
            seq += 1
            at = ev.at + 0.7e-6
            heapq.heappush(queue, (at, seq, _Event(at, send, ev.left - 1)))

    chains = 512
    for i in range(chains):
        seq += 1
        heapq.heappush(queue, (i * 1e-7, seq,
                               _Event(i * 1e-7, send, n_events // (2 * chains))))
    while queue:
        _, _, ev = heapq.heappop(queue)
        ev.fn(ev)
    return done


def reference() -> float:
    """Host seconds for one run of the reference loop, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference_loop(REFERENCE_EVENTS)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Times the block it wraps, raw and normalised (see module doc).

    ``wall_s`` excludes the time spent in the reference loop itself.
    With ``normalise=False`` the clock only measures ``wall_s`` and
    leaves ``norm_s`` NaN: no reference runs inside the block, so
    profiles taken there carry none of its cost.
    """

    def __init__(self, normalise: bool = True):
        self.normalise = normalise
        self.wall_s = 0.0
        self.norm_s = 0.0 if normalise else float("nan")
        self._ref = 0.0
        self._mark = 0.0
        self._previous: Optional[Any] = None

    def _close_interval(self) -> None:
        interval = perf_counter() - self._mark
        ref = reference()
        self.wall_s += interval
        self.norm_s += interval * REFERENCE_S / ((self._ref + ref) / 2.0)
        self._ref = ref
        self._mark = perf_counter()

    def _tick(self, signum: int, frame: Any) -> None:
        self._close_interval()

    def __enter__(self) -> "SpeedClock":
        if not self.normalise:
            self._mark = perf_counter()
            return self
        self._ref = reference()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        if not self.normalise:
            self.wall_s = perf_counter() - self._mark
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close_interval()
