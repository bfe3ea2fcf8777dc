"""Point-to-point Ethernet links (full duplex, fibre).

10GbE operates only over fibre and only in full duplex (paper §1), so a
"cable" is two independent unidirectional :class:`EthernetLink` objects.
Each link serializes frames FIFO at line rate, then delivers them after
the propagation delay.  Delivery targets implement ``receive_frame(skb)``.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.chaos.hooks import register_target as register_chaos_target
from repro.errors import LinkError
from repro.oskernel.skbuff import SkBuff
from repro.sim.engine import Environment
from repro.sim.monitor import CounterMonitor
from repro.sim.timeline import FifoTimeline
from repro.units import Gbps, transfer_time

__all__ = ["EthernetLink", "FrameSink", "wire_time"]

#: Propagation speed in fibre (~2/3 c).
FIBRE_M_PER_S = 2.0e8

#: Default patch-cable length for back-to-back setups (metres).
DEFAULT_CABLE_M = 10.0


def wire_time(skb: SkBuff, rate_bps: float) -> float:
    """Serialization time of a frame including preamble and IFG."""
    return transfer_time(skb.wire_bytes, rate_bps)


class FrameSink(Protocol):
    """Anything that can accept a delivered frame."""

    def receive_frame(self, skb: SkBuff) -> None:  # pragma: no cover
        """Accept one delivered frame."""
        ...


class EthernetLink:
    """One direction of a fibre link.

    Parameters
    ----------
    rate_bps:
        Line rate (10 Gb/s for 10GbE, 1 Gb/s for GbE clients).
    length_m:
        Fibre length; sets propagation delay.
    mtu:
        Frames whose IP-layer size exceeds this are rejected — a
        misconfigured jumbo sender fails loudly instead of silently.
    """

    def __init__(self, env: Environment, rate_bps: float = Gbps(10),
                 length_m: float = DEFAULT_CABLE_M,
                 mtu: int = 16000, name: str = "link"):
        if rate_bps <= 0:
            raise LinkError(f"{name}: rate must be positive")
        if length_m < 0:
            raise LinkError(f"{name}: length cannot be negative")
        self.env = env
        self.rate_bps = rate_bps
        self.propagation_s = length_m / FIBRE_M_PER_S
        self.mtu = mtu
        self.name = name
        self._sink: Optional[FrameSink] = None
        self._txline = FifoTimeline(env, capacity=1, name=f"{name}.txline")
        self.frames = CounterMonitor(f"{name}.frames")
        self.bytes = CounterMonitor(f"{name}.bytes")
        register_chaos_target("link", name, self)

    def connect(self, sink: FrameSink) -> None:
        """Attach the receiving end."""
        self._sink = sink

    @property
    def sink(self) -> Optional[FrameSink]:
        """The attached receiver (None while unconnected)."""
        return self._sink

    def transmit(self, skb: SkBuff) -> None:
        """Begin transmitting ``skb`` (returns immediately; the frame is
        serialized FIFO and delivered after propagation)."""
        self.charge_frame(skb)

    def charge_frame(self, skb: SkBuff) -> float:
        """Commit the FIFO serialization hold arithmetically and schedule
        the delivery; returns the absolute serialization-end instant so
        queue drains (switch ports, routers) can chain off it and keep
        their backlog, and drop-tail, in their own queue."""
        self._check(skb)
        env = self.env
        _, end = self._txline.charge(wire_time(skb, self.rate_bps))
        # Each hold is one start+hold addition and delivery one
        # end+propagation addition; the goldens pin this rounding.
        env.schedule_call_at(end + self.propagation_s, self._deliver, skb)
        return end

    def _deliver(self, skb: SkBuff) -> None:
        self.frames.add()
        self.bytes.add(skb.wire_bytes)
        self._sink.receive_frame(skb)

    def _check(self, skb: SkBuff) -> None:
        if self._sink is None:
            raise LinkError(f"{self.name}: transmit on unconnected link")
        ip_size = skb.payload + skb.headers
        if ip_size > self.mtu:
            raise LinkError(
                f"{self.name}: frame of {ip_size} bytes exceeds MTU {self.mtu}")
