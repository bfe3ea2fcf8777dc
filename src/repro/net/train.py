"""Segment trains: burst-batched frame handling for the data path.

The paper's whole argument is that per-packet fixed costs dominate
10GbE hosts, and that the cure is amortization (interrupt coalescing,
jumbo frames).  A simulator has the same disease: a queue put/get pair,
a process wakeup and a request/grant/release cascade per segment per
resource it crosses.  The data path applies the same amortization idea
to the simulator itself:

* the TCP sender stamps each burst of back-to-back segments (one pump
  wakeup) with a train id, so the burst travels as one logical unit;
* the NIC transmit engine drains a whole backlog with one callback
  chain — one scheduled event per frame boundary — computing every
  per-frame DMA and wire timestamp arithmetically on
  :class:`~repro.sim.timeline.FifoTimeline` servers;
* switch ports and WAN routers forward a queued train the same way,
  splitting it only where drop-tail (or a fault tap) actually removes a
  frame.

Trains change *when Python runs*, never *when things happen*: every
frame is still granted, serialized and delivered at its own instant,
so byte counts, ACK clocking, cwnd evolution and reported
throughput/latency keep per-frame semantics.  The golden digests in
``tests/golden`` and ``tests/sim/test_dispatch_golden.py`` pin those
instants to the float bit.
"""

from __future__ import annotations

from typing import Deque, Optional

__all__ = ["BacklogView", "SegmentTrain"]


class BacklogView:
    """``level``/``capacity`` façade over an engine's backlog deque.

    The NIC, switch ports and routers keep the frame in service out of
    their backlog, so ``len(backlog)`` is the queue occupancy (the item
    being serialized is not queued).  Netstat-style tools, traces and
    drop-tail checks read this instead of the deque.
    """

    __slots__ = ("_backlog", "capacity")

    def __init__(self, backlog: Deque, capacity: int):
        self._backlog = backlog
        self.capacity = capacity

    @property
    def level(self) -> int:
        return len(self._backlog)


class SegmentTrain:
    """One burst of back-to-back frames handled as a unit.

    The NIC transmit engine opens a train when its backlog goes from
    empty to busy and closes it when the backlog drains; every frame
    DMA'd without an intervening idle gap belongs to the same train.
    The sender cooperates by stamping segments of one pump burst with a
    shared train id (``skb.meta["train"]``), which keeps train
    boundaries meaningful even when the NIC interleaves stack-generated
    frames.
    """

    __slots__ = ("opened_at", "frames", "closed_at")

    def __init__(self, opened_at: float):
        self.opened_at = opened_at
        self.frames = 0        # frames handed to the DMA engine
        self.closed_at: Optional[float] = None

    def add(self) -> None:
        """Account one DMA'd frame."""
        self.frames += 1

    def close(self, at_time: float) -> None:
        """Mark the train complete (backlog drained)."""
        self.closed_at = at_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.closed_at is None else "closed"
        return f"<SegmentTrain {state} frames={self.frames}>"
