"""Cost model: where every nanosecond of the simulated data path goes.

This module is the single home of the calibration constants that turn a
:class:`~repro.hw.presets.HostSpec` + :class:`~repro.config.TuningConfig`
into concrete per-packet / per-byte / per-interrupt CPU costs.

Calibration method
------------------

Constants are expressed in *scaled units* so they transfer across hosts:

* per-packet kernel costs in **µs · GHz** (divide by the CPU clock),
* per-byte costs as a **FSB term** (ns·MHz per byte, divide by FSB
  clock) plus a **STREAM term** (fraction of one full copy at the
  host's STREAM rate).

The numbers below were solved from the paper's PE2650 measurements
(Figs. 3-5: 2.47 Gb/s @1500, 4.11 @8160, 3.9 @9000 after full tuning;
2.7/3.6 Gb/s stock/burst-tuned @9000), the E7505 out-of-box 4.64 Gb/s,
the 19 µs / 14 µs end-to-end latencies (Figs. 6-7) and the 5.5 Gb/s
packet-generator figure (§3.5.2).  The governing identities (PE2650,
uniprocessor, MSS-sized segments) are::

    rx_per_segment(s) = (PKT + order*ALLOC_ORDER)/cpu_ghz + s*per_byte
    per_byte          = RX_BYTE_FSB/fsb_mhz + RX_BYTE_STREAM*8/stream
    PKT  = irq + tcp_rx + ack_gen/2 + wake + alloc_base  = 5.65 µs·GHz
    ALLOC_ORDER = 2.95 µs·GHz        per_byte(400 MHz) = 1.464 ns/B

which pin the tuned peaks at 2.47 / 4.11 / 3.90 / ~4.4 Gb/s for MTUs
1500 / 8160 / 9000 / 16000 and the E7505 at ~4.4 Gb/s out of the box.
The SMP tax (1.18, see :mod:`repro.oskernel.kernelcfg`) reproduces the
stock-vs-UP steps, and the 960 ns PCI-X burst overhead puts the MMRBC=512
bus ceiling at ~2.8 Gb/s for 9018-byte frames (stock Fig. 3 peak).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TuningConfig
from repro.errors import ConfigError
from repro.hw.csa import mch_hold_s
from repro.hw.memory import MemorySubsystem
from repro.hw.pcix import pcix_hold_s
from repro.hw.presets import HostSpec
from repro.oskernel.kernelcfg import KernelConfig
from repro.oskernel.skbuff import ETH_OVERHEAD_WIRE
from repro.units import transfer_time, us

__all__ = ["CostModel", "Calibration", "DEFAULT_CALIBRATION"]


@dataclass(frozen=True)
class Calibration:
    """Raw calibration constants (see module docstring for derivations)."""

    # --- receive path, per packet (µs * GHz) ---
    rx_irq_usghz: float = 1.50          # interrupt handler, per interrupt
    rx_tcp_usghz: float = 0.90          # TCP/IP receive processing
    rx_ack_gen_usghz: float = 1.50      # building + sending one ACK
    rx_wake_usghz: float = 2.00         # scheduler wake of the reader, per batch
    # --- receive path, per byte ---
    rx_byte_fsb_ns_mhz: float = 487.0   # FSB-limited data movement
    rx_byte_stream_copies: float = 0.264  # extra copies at STREAM rate
    # --- transmit path, per packet (µs * GHz) ---
    tx_syscall_usghz: float = 0.80      # write() entry, per application write
    tx_tcp_usghz: float = 1.80          # TCP/IP transmit processing
    tx_ack_rx_usghz: float = 0.90       # processing one incoming ACK
    tx_desc_usghz: float = 0.50         # DMA descriptor setup / doorbell
    # --- transmit path, per byte: one user->kernel copy at STREAM rate ---
    tx_byte_stream_copies: float = 1.0
    # --- TCP options ---
    timestamp_usghz: float = 0.35       # per packet, each side, when enabled
    # --- allocator (µs * GHz) ---
    alloc_base_usghz: float = 0.50
    alloc_order_usghz: float = 2.95
    # --- pktgen (§3.5.2) ---
    pktgen_loop_usghz: float = 4.95     # kernel loop per pre-formed packet
    # --- fixed, clock-independent path elements (seconds) ---
    nic_traverse_s: float = us(2.0)     # MAC+PCS+SerDes+optics, each adapter
    rx_fixed_pad_s: float = us(0.5)     # bus posting + board fixed remainder
    # --- receiver-application drain delay (seconds): time from "segment
    # processed" to "buffer space returned" (process scheduling).
    drain_latency_s: float = us(3.0)
    # --- §3.5.3 / §5 offload projections ---
    #: header-splitting leaves only this fraction of the FSB per-byte
    #: term on the CPU (header touch; payload goes straight to user).
    header_split_byte_fraction: float = 0.30
    #: OS-bypass per-packet cost, each side (µs * GHz): doorbell + CQ.
    os_bypass_pkt_usghz: float = 0.40
    #: OS-bypass residual per-byte CPU cost (seconds/byte).
    os_bypass_byte_s: float = 0.02e-9

    def __post_init__(self) -> None:
        for field_name, value in self.__dict__.items():
            if value < 0:
                raise ConfigError(f"calibration {field_name} negative: {value}")


DEFAULT_CALIBRATION = Calibration()


class CostModel:
    """Concrete costs for one (host spec, tuning config) pair.

    All returned values are **seconds**.  Methods are grouped by path.
    """

    def __init__(self, spec: HostSpec, config: TuningConfig,
                 calibration: Calibration = DEFAULT_CALIBRATION):
        self.spec = spec
        self.config = config
        self.cal = calibration
        self.kernel = KernelConfig.from_tuning(config)
        self.memory = MemorySubsystem(spec)
        self._ghz = spec.cpu_ghz
        # Per-byte receive cost (seconds per byte): FSB term + STREAM term.
        self._rx_byte_s = (
            calibration.rx_byte_fsb_ns_mhz / spec.fsb_mhz * 1e-9
            + calibration.rx_byte_stream_copies * 8.0 / spec.stream_copy_bps
        )
        self._tx_byte_s = (
            calibration.tx_byte_stream_copies * 8.0 / spec.stream_copy_bps
        )
        if config.header_splitting:
            # aLAST engine (§3.5.3): payload bypasses the CPU on receive;
            # only the header touch remains.
            self._rx_byte_s = (
                calibration.rx_byte_fsb_ns_mhz / spec.fsb_mhz * 1e-9
                * calibration.header_split_byte_fraction)
        if config.os_bypass:
            # §5 projection: direct data placement on both sides.
            self._rx_byte_s = calibration.os_bypass_byte_s
            self._tx_byte_s = calibration.os_bypass_byte_s
        # Every cost method is a pure function of the (spec, config,
        # calibration) triple frozen at construction (the per-byte terms
        # above already bake that assumption in), so the hot per-segment
        # costs are memoized: a steady flow re-prices the same two or
        # three payload sizes millions of times.
        self._tx_seg_cache: dict = {}
        self._rx_seg_cache: dict = {}
        self._alloc_cache: dict = {}
        self._frame_bytes_cache: dict = {}
        self._pkt_cache: dict = {}

    # -- helpers -------------------------------------------------------------
    def _pkt(self, usghz: float) -> float:
        """Scale a per-packet cost by CPU clock and the SMP tax."""
        return usghz * 1e-6 / self._ghz * self.kernel.per_packet_tax

    # -- transmit path ---------------------------------------------------------
    def tx_syscall_s(self) -> float:
        """One ``write()`` entry (charged per application write).

        OS-bypass posts work requests from user space — no syscall."""
        t = self._pkt_cache.get("tx_syscall")
        if t is None:
            t = (0.0 if self.config.os_bypass
                 else self._pkt(self.cal.tx_syscall_usghz))
            self._pkt_cache["tx_syscall"] = t
        return t

    def tx_segment_s(self, payload: int) -> float:
        """CPU time to build and hand one data segment to the NIC:
        TCP/IP processing + skb allocation + user->kernel copy +
        descriptor setup (+ timestamp option cost)."""
        t = self._tx_seg_cache.get(payload)
        if t is None:
            t = self._tx_segment_uncached(payload)
            self._tx_seg_cache[payload] = t
        return t

    def _tx_segment_uncached(self, payload: int) -> float:
        cal = self.cal
        if self.config.os_bypass:
            return (self._pkt(cal.os_bypass_pkt_usghz)
                    + payload * self._tx_byte_s)
        per_pkt = cal.tx_tcp_usghz + cal.tx_desc_usghz
        if self.config.tcp_timestamps:
            per_pkt += cal.timestamp_usghz
        t = self._pkt(per_pkt)
        t += self.alloc_cost_s(self.frame_bytes(payload))
        t += payload * self._tx_byte_s * self.kernel.per_packet_tax
        if not self.config.checksum_offload:
            t += self.memory.copy_engine().checksum_time(payload)
        return t

    def tx_ack_rx_s(self) -> float:
        """Processing one incoming ACK on the sender."""
        t = self._pkt_cache.get("tx_ack_rx")
        if t is None:
            if self.config.os_bypass:
                t = self._pkt(self.cal.os_bypass_pkt_usghz * 0.25)
            else:
                per = self.cal.tx_ack_rx_usghz
                if self.config.tcp_timestamps:
                    per += self.cal.timestamp_usghz * 0.5
                t = self._pkt(per)
            self._pkt_cache["tx_ack_rx"] = t
        return t

    # -- receive path ------------------------------------------------------------
    def rx_irq_s(self) -> float:
        """Interrupt servicing (one interrupt, any batch size).

        OS-bypass completes into user-polled queues — no interrupt."""
        t = self._pkt_cache.get("rx_irq")
        if t is None:
            t = (0.0 if self.config.os_bypass
                 else self._pkt(self.cal.rx_irq_usghz) * self.kernel.irq_tax)
            self._pkt_cache["rx_irq"] = t
        return t

    def rx_segment_s(self, payload: int) -> float:
        """Stack processing of one received data segment: protocol work,
        skb allocation (driver replenishes the ring), per-byte data
        movement."""
        t = self._rx_seg_cache.get(payload)
        if t is None:
            t = self._rx_segment_uncached(payload)
            self._rx_seg_cache[payload] = t
        return t

    def _rx_segment_uncached(self, payload: int) -> float:
        cal = self.cal
        if self.config.os_bypass:
            return (self._pkt(cal.os_bypass_pkt_usghz)
                    + payload * self._rx_byte_s)
        per_pkt = cal.rx_tcp_usghz
        if self.config.tcp_timestamps:
            per_pkt += cal.timestamp_usghz
        t = self._pkt(per_pkt)
        if self.config.header_splitting:
            # only a small header skb is allocated; the payload lands
            # directly in the user buffer
            t += self.alloc_cost_s(128)
        else:
            t += self.alloc_cost_s(self.frame_bytes(payload))
        t += payload * self._rx_byte_s * self.kernel.per_packet_tax
        if not self.config.checksum_offload:
            t += self.memory.copy_engine().checksum_time(payload)
        return t

    def rx_ack_gen_s(self) -> float:
        """Building and transmitting one ACK on the receiver."""
        t = self._pkt_cache.get("rx_ack_gen")
        if t is None:
            t = self._pkt(self.cal.os_bypass_pkt_usghz * 0.25
                          if self.config.os_bypass
                          else self.cal.rx_ack_gen_usghz)
            self._pkt_cache["rx_ack_gen"] = t
        return t

    def rx_wake_s(self) -> float:
        """Scheduler wakeup of the blocked reader (per delivery batch).

        OS-bypass delivers into user memory — nobody to wake."""
        t = self._pkt_cache.get("rx_wake")
        if t is None:
            t = (0.0 if self.config.os_bypass
                 else self._pkt(self.cal.rx_wake_usghz))
            self._pkt_cache["rx_wake"] = t
        return t

    # -- shared ---------------------------------------------------------------
    def alloc_cost_s(self, frame_bytes: int) -> float:
        """skb allocation cost for a frame of ``frame_bytes``."""
        t = self._alloc_cache.get(frame_bytes)
        if t is None:
            from repro.oskernel.allocator import block_order, block_size_for
            order = block_order(block_size_for(frame_bytes))
            usghz = (self.cal.alloc_base_usghz
                     + order * self.cal.alloc_order_usghz)
            t = self._pkt(usghz)
            self._alloc_cache[frame_bytes] = t
        return t

    def frame_bytes(self, payload: int) -> int:
        """In-memory frame size for a data segment of ``payload`` bytes."""
        n = self._frame_bytes_cache.get(payload)
        if n is None:
            from repro.oskernel.skbuff import ETH_HEADER, ip_tcp_header_bytes
            n = (payload + ip_tcp_header_bytes(self.config.tcp_timestamps)
                 + ETH_HEADER)
            self._frame_bytes_cache[payload] = n
        return n

    def dma_hold_s(self, frame_bytes: int) -> float:
        """Bus hold of one DMA transfer of ``frame_bytes``: the memory
        hub's under CSA (§3.5.3), else the host's PCI-X bus's at the
        configured MMRBC — the hold the DES adapter's bus charges."""
        if self.config.csa:
            return mch_hold_s(frame_bytes)
        return pcix_hold_s(frame_bytes, self.config.mmrbc, self.spec.pcix_mhz,
                           self.spec.pcix_burst_overhead_ns * 1e-9)

    @staticmethod
    def wire_time_s(frame_bytes: int, wire_bps: float) -> float:
        """Serialization of one frame of ``frame_bytes``, preamble and
        inter-frame gap included, as an Ethernet link charges it."""
        return transfer_time(frame_bytes + ETH_OVERHEAD_WIRE, wire_bps)

    def pktgen_loop_s(self) -> float:
        """Kernel packet-generator per-packet loop cost (single copy,
        bypasses the whole stack — §3.5.2)."""
        return self.cal.pktgen_loop_usghz * 1e-6 / self._ghz

    # -- fixed path ---------------------------------------------------------------
    @property
    def nic_traverse_s(self) -> float:
        """One adapter's internal MAC/PHY/optics latency."""
        return self.cal.nic_traverse_s

    @property
    def rx_fixed_pad_s(self) -> float:
        """Fixed receive-side posting latency (board + bus)."""
        return self.cal.rx_fixed_pad_s

    @property
    def drain_latency_s(self) -> float:
        """Delay before the reader returns receive-buffer space.

        With direct data placement there is nothing to drain."""
        if self.config.os_bypass:
            return 0.0
        return self.cal.drain_latency_s

    def rx_truesize(self, skb) -> int:
        """Socket-buffer bytes charged for one received segment.

        Header splitting and OS-bypass place the payload outside kernel
        memory, so only a small header buffer is charged."""
        if self.config.os_bypass or self.config.header_splitting:
            return 256
        return skb.truesize

    # -- diagnostics ----------------------------------------------------------
    def rx_per_segment_s(self, payload: int) -> float:
        """Receiver CPU budget per data segment with one interrupt and
        one reader wakeup each and an ACK every second segment."""
        return (self.rx_irq_s()
                + self.rx_segment_s(payload)
                + 0.5 * self.rx_ack_gen_s()
                + self.rx_wake_s())

    def rx_capacity_bps(self, mss: int) -> float:
        """Receiver CPU capacity for MSS-sized segments: the analytic
        ceiling the DES approaches with ample windows."""
        return mss * 8.0 / self.rx_per_segment_s(mss)

    def tx_capacity_bps(self, mss: int) -> float:
        """Sender CPU capacity for MSS-sized segments."""
        per_seg = (self.tx_syscall_s()
                   + self.tx_segment_s(mss)
                   + 0.5 * self.tx_ack_rx_s())
        return mss * 8.0 / per_seg
