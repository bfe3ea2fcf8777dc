"""PCI-X bus model with MMRBC-dependent burst efficiency.

The adapter reaches host memory through DMA bursts of at most MMRBC
(maximum memory read byte count) bytes.  Each burst pays a fixed
arbitration/setup overhead on top of its data time, so the *effective*
bus bandwidth rises steeply with the burst size — this is the paper's
first big optimization (512 -> 4096 bytes, +33% peak throughput at
9000-byte MTU).

The bus is a shared FCFS resource: transmit DMA (memory reads) and
receive DMA (memory writes) of one host contend on it, as do two
adapters installed on the *same* segment.  The paper's dual-adapter test
used independent buses, which :class:`~repro.hw.host.Host` models by
instantiating one :class:`PciXBus` per adapter.

:func:`pcix_hold_s` is the bus-hold formula itself, shared by the DES
bus and the closed-form tiers (through
:meth:`~repro.hw.calibration.CostModel.dma_hold_s`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import VALID_MMRBC
from repro.errors import ConfigError
from repro.sim.engine import Environment
from repro.sim.timeline import FifoTimeline
from repro.sim.trace import TraceBuffer
from repro.telemetry.session import active_metrics

__all__ = ["PciXBus", "pcix_peak_bps", "pcix_hold_s"]


def pcix_peak_bps(clock_mhz: int) -> float:
    """Raw PCI-X bandwidth: clock x 64 bit."""
    return clock_mhz * 1e6 * 64


def pcix_hold_s(nbytes: int, mmrbc: int, clock_mhz: int,
                burst_overhead_s: float) -> float:
    """Bus-occupancy seconds to DMA ``nbytes`` with ``mmrbc`` bursts.

    The data time at the raw bus rate plus a fixed overhead per burst of
    at most ``mmrbc`` bytes."""
    bursts = -(-nbytes // mmrbc)  # ceil division
    return nbytes * 8.0 / pcix_peak_bps(clock_mhz) + bursts * burst_overhead_s


class PciXBus:
    """One PCI-X segment (64-bit wide) shared by its devices."""

    def __init__(self, env: Environment, clock_mhz: int,
                 burst_overhead_s: float,
                 name: str = "pcix",
                 trace: Optional[TraceBuffer] = None):
        if clock_mhz not in (33, 66, 100, 133):
            raise ConfigError(f"PCI-X clock must be 33/66/100/133 MHz, "
                              f"got {clock_mhz}")
        if burst_overhead_s < 0:
            raise ConfigError("burst overhead cannot be negative")
        self.clock_mhz = clock_mhz
        self.burst_overhead_s = burst_overhead_s
        self._attach(env, name, trace, "pcix.dma")

    def _attach(self, env: Environment, name: str,
                trace: Optional[TraceBuffer], point: str) -> None:
        """Build the FIFO timeline, hold memo and ``<point>.*`` counters."""
        self.env = env
        self.bus = FifoTimeline(env, capacity=1, name=name)
        self.name = name
        self.trace = trace
        self.bytes_moved = 0
        # bus hold per (nbytes, mmrbc): a transfer charges a few dozen
        # distinct pairs hundreds of thousands of times, and the timing
        # parameters are fixed once the bus is built
        self._holds: Dict[Tuple[int, int], float] = {}
        metrics = active_metrics()
        if metrics is not None:
            self._c_dma = metrics.counter(f"{point}.transfers", bus=name)
            self._c_bytes = metrics.counter(f"{point}.bytes", bus=name)
        else:
            self._c_dma = self._c_bytes = None

    # -- timing ---------------------------------------------------------------
    def transfer_time(self, nbytes: int, mmrbc: int) -> float:
        """Bus-occupancy seconds to DMA ``nbytes`` with ``mmrbc`` bursts."""
        if mmrbc not in VALID_MMRBC:
            raise ConfigError(f"invalid MMRBC {mmrbc}")
        if nbytes <= 0:
            raise ConfigError(f"transfer size must be positive, got {nbytes}")
        return pcix_hold_s(nbytes, mmrbc, self.clock_mhz,
                           self.burst_overhead_s)

    # -- DES protocol ------------------------------------------------------------
    def charge_transfer(self, nbytes: int, mmrbc: int):
        """Commit one FIFO DMA hold arithmetically; return (start, end).

        Grant and completion instants equal the event-based FCFS
        resource's exactly (see :class:`FifoTimeline`); competing
        transmit and receive DMA charged later but before ``end`` queue
        behind this one, exactly like bus arbitration.  The caller
        accounts the transfer via :meth:`account` when it completes.
        The hold is :meth:`transfer_time`'s, computed (and checked) the
        first time a ``(nbytes, mmrbc)`` pair is charged.
        """
        key = (nbytes, mmrbc)
        hold = self._holds.get(key)
        if hold is None:
            hold = self._holds[key] = self.transfer_time(nbytes, mmrbc)
        return self.bus.charge(hold)

    def account(self, nbytes: int, mmrbc: int) -> None:
        """Record a completed transfer (counters + trace)."""
        self.bytes_moved += nbytes
        if self._c_dma is not None:
            self._c_dma.inc()
            self._c_bytes.inc(nbytes)
        trace = self.trace
        if trace is not None and trace.enabled:
            self._post(trace, nbytes, mmrbc)

    def _post(self, trace: TraceBuffer, nbytes: int, mmrbc: int) -> None:
        trace.post(self.env.now, "pcix.dma", None, bus=self.name,
                   nbytes=nbytes, bursts=-(-nbytes // mmrbc), mmrbc=mmrbc)

    def dma(self, nbytes: int, mmrbc: int):
        """Process: occupy the bus for one DMA transfer.

        Usage: ``yield from bus.dma(frame_bytes, config.mmrbc)``.
        """
        _, end = self.charge_transfer(nbytes, mmrbc)
        yield self.env._fast_timeout(end - self.env._now)
        self.account(nbytes, mmrbc)

    def utilization(self) -> float:
        """Busy fraction of the bus since t=0."""
        return self.bus.utilization()
