"""Iperf: fixed-duration stream throughput.

"Iperf measures the amount of data sent over a consistent stream in a
set time" (§3.2) — the complement of NTTCP's fixed-count measurement.
The paper notes the two typically agree within 2-3%; a test asserts the
same property of the simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MeasurementError
from repro.sim.engine import Environment
from repro.tcp.connection import TcpConnection

__all__ = ["IperfResult", "iperf_run"]


@dataclass(frozen=True)
class IperfResult:
    """One Iperf measurement."""

    duration_s: float
    bytes_delivered: int
    goodput_bps: float

    @property
    def goodput_gbps(self) -> float:
        """Goodput in Gb/s."""
        return self.goodput_bps / 1e9


def iperf_run(env: Environment, conn: TcpConnection, duration_s: float,
              write_size: int = 65536,
              warmup_s: float = 0.0) -> IperfResult:
    """Stream continuously for ``duration_s`` (after ``warmup_s``) and
    report the delivered-byte rate over the timed window."""
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise MeasurementError("duration must be finite and positive")
    if not (math.isfinite(warmup_s) and warmup_s >= 0):
        raise MeasurementError("warmup must be finite and non-negative")
    if write_size <= 0:
        raise MeasurementError("write size must be positive")

    stop = {"flag": False}

    def source():
        while not stop["flag"]:
            yield from conn.write(write_size)

    env.process(source(), name="iperf.src")
    env.run(until=env.now + warmup_s)
    start_bytes = conn.receiver.bytes_delivered
    start_time = env.now
    env.run(until=env.now + duration_s)
    delivered = conn.receiver.bytes_delivered - start_bytes
    elapsed = env.now - start_time
    stop["flag"] = True
    if delivered <= 0:
        raise MeasurementError("iperf window saw no deliveries")
    return IperfResult(duration_s=elapsed, bytes_delivered=delivered,
                       goodput_bps=delivered * 8.0 / elapsed)
