"""MAGNET: kernel-path tracing and profiling (§3.2).

MAGNET "allowed us to trace and profile the paths taken by individual
packets through the TCP stack with negligible effect on network
performance.  By observing a random sampling of packets, we were able to
quantify how many packets take each possible path, the cost of each
path, and the conditions necessary for a packet to take a faster path."

The simulated MAGNET rides on the host's
:class:`~repro.sim.trace.TraceBuffer`: enable it, run traffic, then ask
for per-path packet counts and per-packet latencies between
instrumentation points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.hw.host import Host

__all__ = ["Magnet", "PathProfile"]


@dataclass(frozen=True)
class PathProfile:
    """Latency statistics between two instrumentation points.

    ``requeued`` counts subjects that re-entered ``src_point`` before
    reaching ``dst_point`` (retransmitted packets: the first entry time
    is kept, later re-entries are counted here, not silently ignored).
    ``unmatched`` counts subjects that entered but never reached
    ``dst_point`` (lost or still in flight when tracing stopped).
    """

    src_point: str
    dst_point: str
    samples: int
    mean_s: float
    p50_s: float
    p99_s: float
    requeued: int = 0
    unmatched: int = 0

    @property
    def mean_us(self) -> float:
        """Mean path latency in microseconds."""
        return self.mean_s * 1e6


class Magnet:
    """Attach to one or more hosts and profile packet paths."""

    def __init__(self, *hosts: Host):
        if not hosts:
            raise MeasurementError("magnet needs at least one host")
        self.hosts = hosts

    def start(self) -> None:
        """Enable tracing on all attached hosts."""
        for host in self.hosts:
            host.trace.enabled = True

    def stop(self) -> None:
        """Disable tracing."""
        for host in self.hosts:
            host.trace.enabled = False

    # -- analyses --------------------------------------------------------------
    def path_histogram(self) -> Dict[str, int]:
        """How many events each instrumentation point saw."""
        total: Dict[str, int] = {}
        for host in self.hosts:
            for point, n in host.trace.points().items():
                total[point] = total.get(point, 0) + n
        return total

    def profile(self, src_point: str, dst_point: str) -> PathProfile:
        """Per-packet latency from ``src_point`` to ``dst_point``,
        matched by packet identity across all attached hosts."""
        first: Dict[object, float] = {}
        latencies: List[float] = []
        requeued = 0
        events = []
        for host in self.hosts:
            events.extend(host.trace.select())
        events.sort(key=lambda e: e.time)
        for ev in events:
            if ev.point == src_point:
                if ev.subject in first:
                    # Retransmission: the subject re-entered the path
                    # before completing it.  Keep the first entry time
                    # (the packet's true path start) and count it.
                    requeued += 1
                else:
                    first[ev.subject] = ev.time
            elif ev.point == dst_point:
                t0 = first.pop(ev.subject, None)
                if t0 is not None:
                    latencies.append(ev.time - t0)
        if not latencies:
            raise MeasurementError(
                f"no packets traversed {src_point} -> {dst_point}")
        arr = np.asarray(latencies)
        return PathProfile(
            src_point=src_point, dst_point=dst_point,
            samples=len(arr),
            mean_s=float(arr.mean()),
            p50_s=float(np.percentile(arr, 50)),
            p99_s=float(np.percentile(arr, 99)),
            requeued=requeued,
            unmatched=len(first),
        )
