"""NetPipe: ping-pong latency measurement.

"To estimate the end-to-end latency between a pair of 10GbE adapters,
we use NetPipe to obtain an averaged round-trip time over several
single-byte ping-pong tests and then divide by two" (§3.2).

The pong direction needs its own TCP connection (NetPipe uses one
bidirectional socket; two unidirectional connections are equivalent in
this model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import MeasurementError
from repro.numeric import pairwise_sum
from repro.sim.engine import Environment
from repro.tcp.connection import TcpConnection

__all__ = ["NetpipeResult", "netpipe_latency"]


@dataclass(frozen=True)
class NetpipeResult:
    """Latency at one payload size."""

    payload: int
    iterations: int
    rtt_s: float
    latency_s: float

    @property
    def latency_us(self) -> float:
        """One-way latency in microseconds (the Fig. 6/7 y-axis)."""
        return self.latency_s * 1e6


def netpipe_latency(env: Environment, forward: TcpConnection,
                    backward: TcpConnection, payload: int = 1,
                    iterations: int = 8) -> NetpipeResult:
    """Averaged ping-pong RTT / 2 at one payload size."""
    if payload <= 0:
        raise MeasurementError("payload must be positive")
    if iterations < 1:
        raise MeasurementError("need at least one iteration")
    rtts: List[float] = []

    def pinger():
        for _ in range(iterations):
            target = backward.receiver.bytes_delivered + payload
            t0 = env.now
            yield from forward.write(payload)
            # wait for the echo
            yield from backward.wait_delivered(target, poll_s=2e-7)
            rtts.append(env.now - t0)

    def ponger():
        delivered = 0
        for _ in range(iterations):
            delivered += payload
            yield from forward.wait_delivered(delivered, poll_s=2e-7)
            yield from backward.write(payload)

    env.process(ponger(), name="netpipe.pong")
    done = env.process(pinger(), name="netpipe.ping")
    env.run(until=done)
    if not rtts:
        raise MeasurementError("ping-pong produced no samples")
    # First iteration pays slow-start/cold costs; NetPipe averages the
    # steady repetitions.
    steady = rtts[1:] if len(rtts) > 1 else rtts
    rtt = pairwise_sum(steady) / len(steady)   # np.mean, to the bit
    return NetpipeResult(payload=payload, iterations=iterations,
                         rtt_s=rtt, latency_s=rtt / 2.0)

