"""Communication Streaming Architecture: the adapter on the memory hub.

§3.5.3: "An additional possibility ... is the placement of network
adapters on the Memory Controller Hub (MCH), typically found on the
Northbridge.  Intel's Communication Streaming Architecture (CSA) is
such an implementation for Gigabit Ethernet.  Placing the adapter on
the MCH allows for the bypass of the I/O bus."

:class:`MchLink` is a drop-in replacement for
:class:`~repro.hw.pcix.PciXBus` in the adapter's DMA path: a dedicated
hub interface with no burst-size sensitivity and a small fixed
per-transfer cost.  It removes both the MMRBC bottleneck and the
PCI-X-as-error-source concern the paper raises.  It shares the bus's
FIFO timeline, hold memo, counters and DMA protocol; only the hold
(:func:`mch_hold_s`) and the ``mch.dma`` telemetry names differ.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.hw.pcix import PciXBus
from repro.sim.engine import Environment
from repro.sim.trace import TraceBuffer
from repro.units import Gbps, ns

__all__ = ["MchLink", "mch_hold_s"]

#: Dedicated hub-interface bandwidth (a CSA-era MCH port scaled to the
#: 10GbE generation: wide enough never to bind before the wire).
MCH_LINK_BPS = Gbps(16)

#: Fixed per-transfer cost (doorbell + hub arbitration).
MCH_TRANSFER_OVERHEAD_S = ns(120)


def mch_hold_s(nbytes: int, link_bps: float = MCH_LINK_BPS,
               overhead_s: float = MCH_TRANSFER_OVERHEAD_S) -> float:
    """Hub-occupancy seconds for one transfer of ``nbytes``."""
    return nbytes * 8.0 / link_bps + overhead_s


class MchLink(PciXBus):
    """A memory-controller-hub attachment point for one adapter."""

    def __init__(self, env: Environment, link_bps: float = MCH_LINK_BPS,
                 overhead_s: float = MCH_TRANSFER_OVERHEAD_S,
                 name: str = "mch",
                 trace: Optional[TraceBuffer] = None):
        if link_bps <= 0:
            raise ConfigError("MCH link bandwidth must be positive")
        if overhead_s < 0:
            raise ConfigError("MCH overhead cannot be negative")
        self.link_bps = link_bps
        self.overhead_s = overhead_s
        self._attach(env, name, trace, "mch.dma")

    def transfer_time(self, nbytes: int, mmrbc: int = 0) -> float:
        """Hub-occupancy seconds for one transfer.

        ``mmrbc`` is accepted (and ignored) for interface compatibility
        with :class:`PciXBus` — there is no burst-size register here.
        """
        if nbytes <= 0:
            raise ConfigError(f"transfer size must be positive, got {nbytes}")
        return mch_hold_s(nbytes, self.link_bps, self.overhead_s)

    def _post(self, trace: TraceBuffer, nbytes: int, mmrbc: int) -> None:
        trace.post(self.env.now, "mch.dma", None, bus=self.name,
                   nbytes=nbytes)
