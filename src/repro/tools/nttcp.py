"""NTTCP: the paper's primary throughput tool.

NTTCP (a ttcp variant) "measures the time required to send a set number
of fixed-size packets".  :func:`nttcp_run` reproduces one such
measurement over an established :class:`~repro.tcp.connection.TcpConnection`.
The paper's sweep (§3.3: 32768 writes per point, payloads 128 B .. 16 KB)
is :meth:`repro.core.casestudy.CaseStudy.sweep`, scaled down by default
so a sweep runs in seconds of wall-clock; the measured quantity is a
rate, so the count only sets averaging quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import MeasurementError
from repro.sim.engine import Environment
from repro.tcp.connection import TcpConnection

__all__ = ["NttcpResult", "nttcp_run", "default_payloads"]

#: The paper's per-point write count.
PAPER_WRITE_COUNT = 32768

#: Scaled default: enough for a stable rate, ~16x faster to simulate.
DEFAULT_WRITE_COUNT = 2048


@dataclass(frozen=True)
class NttcpResult:
    """One NTTCP measurement point."""

    payload: int
    count: int
    bytes_delivered: int
    elapsed_s: float
    goodput_bps: float
    sender_load: float
    receiver_load: float
    retransmissions: int

    @property
    def goodput_gbps(self) -> float:
        """Goodput in Gb/s (the paper's y-axis unit is Mbit/s)."""
        return self.goodput_bps / 1e9

    @property
    def goodput_mbps(self) -> float:
        """Goodput in Mb/s."""
        return self.goodput_bps / 1e6


def nttcp_run(env: Environment, conn: TcpConnection, payload: int,
              count: int = DEFAULT_WRITE_COUNT) -> NttcpResult:
    """Run one fixed-count transfer to completion and measure it.

    Advances the simulation until every byte is delivered.  The run is
    timed from its own first data arrival and counts only its own bytes,
    so back-to-back runs on one connection each measure themselves.
    """
    if payload <= 0 or count <= 0:
        raise MeasurementError("payload and count must be positive")
    total = payload * count
    src = conn.src_host
    dst = conn.dst_host
    src.cpu.reset_load_window()
    dst.cpu.reset_load_window()

    rx = conn.receiver
    baseline = rx.bytes_delivered
    rx.first_data_time = None

    def app():
        yield from conn.send_stream(payload, count)
        yield from conn.wait_delivered(baseline + total)

    done = env.process(app(), name="nttcp")
    env.run(until=done)
    if rx.first_data_time is None or rx.last_delivery_time is None:
        raise MeasurementError("transfer produced no deliveries")
    elapsed = rx.last_delivery_time - rx.first_data_time
    if elapsed <= 0:
        raise MeasurementError("transfer too short to time")
    return NttcpResult(
        payload=payload,
        count=count,
        bytes_delivered=total,
        elapsed_s=elapsed,
        goodput_bps=(rx.bytes_delivered - baseline) * 8.0 / elapsed,
        sender_load=src.cpu.load(),
        receiver_load=dst.cpu.load(),
        retransmissions=conn.sender.retransmitted,
    )


def default_payloads(mss: int, points: int = 24,
                     lo: int = 128, hi: int = 16384) -> List[int]:
    """A payload grid covering ``lo..hi`` that always includes the
    MSS-adjacent sizes where Fig. 3's dips live."""
    if points < 4:
        raise MeasurementError("need at least 4 sweep points")
    grid = {lo, hi}
    step = (hi - lo) / (points - 1)
    for i in range(points):
        grid.add(int(lo + i * step))
    # the interesting neighbourhood: around the MSS and just below
    for anchor in (mss // 2, mss - 1512, mss - 512, mss, mss + 52,
                   mss + mss // 2):
        if lo <= anchor <= hi:
            grid.add(anchor)
    return sorted(grid)

