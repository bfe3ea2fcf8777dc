"""Per-packet stack cost accounting — the paper's §5 follow-on work.

"To continue this work, we are currently instrumenting the Linux TCP
stack with MAGNET to perform per-packet profiling and tracing of the
stack's control path...  Analysis of this data is giving us an
unprecedentedly high-resolution picture of the most expensive aspects
of TCP processing overhead."

:class:`StackProfiler` produces that picture for the simulated stack:
it decomposes the cost of moving one segment end-to-end into the named
stages of the cost model (syscall, TCP transmit, allocation, copies,
DMA, wire, interrupt, TCP receive, wakeup) and reports both per-packet
budgets and their share of the bottleneck — i.e. *where the time goes*
at each MTU, which is exactly the question §3.5.2 answers informally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.hw.calibration import Calibration, CostModel, DEFAULT_CALIBRATION
from repro.hw.presets import HostSpec, PE2650
from repro.tcp.mss import mss_for_mtu
from repro.units import Gbps

__all__ = ["StageCost", "StackProfile", "StackProfiler"]


@dataclass(frozen=True)
class StageCost:
    """One stage's share of a segment's journey."""

    stage: str
    where: str           # "sender CPU" / "bus" / "wire" / "receiver CPU"
    seconds: float
    overlappable: bool   # pipelined stages do not bind throughput alone

    @property
    def microseconds(self) -> float:
        """Cost in µs."""
        return self.seconds * 1e6


@dataclass
class StackProfile:
    """The full decomposition for one (platform, config, payload)."""

    spec_name: str
    config_label: str
    payload: int
    stages: List[StageCost]

    def total_us(self, where: str = "") -> float:
        """Sum of stage costs, optionally filtered by location."""
        return sum(s.microseconds for s in self.stages
                   if not where or s.where == where)

    def _by_where(self) -> Dict[str, float]:
        """Serial seconds per location."""
        by_where: Dict[str, float] = {}
        for s in self.stages:
            by_where[s.where] = by_where.get(s.where, 0.0) + s.seconds
        return by_where

    def bottleneck(self) -> str:
        """The location whose serial work is largest (what binds)."""
        by_where = self._by_where()
        return max(by_where, key=by_where.get)

    def predicted_goodput_bps(self) -> float:
        """Payload rate implied by the binding location."""
        worst = max(self._by_where().values())
        if worst <= 0:
            raise MeasurementError("profile has no positive costs")
        return self.payload * 8.0 / worst

    def rows(self) -> List[Dict[str, object]]:
        """Table rows, most expensive first."""
        total = sum(s.seconds for s in self.stages)
        out = []
        for s in sorted(self.stages, key=lambda x: -x.seconds):
            out.append({
                "stage": s.stage,
                "where": s.where,
                "us/segment": round(s.microseconds, 2),
                "share": f"{s.seconds / total * 100:.0f}%",
            })
        return out


class StackProfiler:
    """Decompose the per-segment cost of one configuration."""

    def __init__(self, spec: HostSpec = PE2650,
                 calibration: Calibration = DEFAULT_CALIBRATION,
                 wire_bps: float = Gbps(10)):
        self.spec = spec
        self.calibration = calibration
        self.wire_bps = wire_bps

    def profile(self, config: TuningConfig,
                payload: int = 0) -> StackProfile:
        """Stage costs for one MSS-sized (or given) segment."""
        costs = CostModel(self.spec, config, self.calibration)
        mss = mss_for_mtu(config.mtu, config.tcp_timestamps)
        if payload <= 0:
            payload = mss
        frame = costs.frame_bytes(payload)

        # decompose tx_segment_s into its documented parts
        tx_total = costs.tx_segment_s(payload)
        # direct data placement allocates no skb on either side
        tx_alloc = 0.0 if config.os_bypass else costs.alloc_cost_s(frame)
        tx_copy = payload * costs._tx_byte_s * costs.kernel.per_packet_tax
        tx_proto = max(0.0, tx_total - tx_alloc - tx_copy)

        rx_total = costs.rx_segment_s(payload)
        if config.os_bypass:
            rx_alloc = 0.0
        elif config.header_splitting:
            rx_alloc = costs.alloc_cost_s(128)
        else:
            rx_alloc = costs.alloc_cost_s(frame)
        rx_bytes = payload * costs._rx_byte_s * costs.kernel.per_packet_tax
        rx_proto = max(0.0, rx_total - rx_alloc - rx_bytes)
        dma = costs.dma_hold_s(frame)

        stages = [
            StageCost("write() syscall", "sender CPU",
                      costs.tx_syscall_s(), False),
            StageCost("TCP/IP transmit + descriptor", "sender CPU",
                      tx_proto, False),
            StageCost("skb allocation (tx)", "sender CPU", tx_alloc, False),
            StageCost("user->kernel copy", "sender CPU", tx_copy, False),
            StageCost("ACK processing (amortised)", "sender CPU",
                      0.5 * costs.tx_ack_rx_s(), False),
            StageCost("DMA to adapter", "sender bus", dma, True),
            StageCost("wire serialization", "wire",
                      costs.wire_time_s(frame, self.wire_bps), True),
            StageCost("DMA to host memory", "receiver bus", dma, True),
            StageCost("interrupt service (amortised)", "receiver CPU",
                      costs.rx_irq_s(), False),
            StageCost("TCP/IP receive", "receiver CPU", rx_proto, False),
            StageCost("skb allocation (rx)", "receiver CPU", rx_alloc,
                      False),
            StageCost("data movement (FSB + copy)", "receiver CPU",
                      rx_bytes, False),
            StageCost("ACK generation (amortised)", "receiver CPU",
                      0.5 * costs.rx_ack_gen_s(), False),
            StageCost("reader wakeup", "receiver CPU",
                      costs.rx_wake_s(), False),
        ]
        return StackProfile(spec_name=self.spec.name,
                            config_label=config.describe(),
                            payload=payload, stages=stages)

    def compare(self, configs: Dict[str, TuningConfig]) -> List[Dict[str, object]]:
        """One summary row per configuration: totals + bottleneck."""
        rows = []
        for label, config in configs.items():
            prof = self.profile(config)
            rows.append({
                "config": label,
                "payload": prof.payload,
                "sender CPU (us)": round(prof.total_us("sender CPU"), 2),
                "receiver CPU (us)": round(prof.total_us("receiver CPU"), 2),
                "bus (us)": round(prof.total_us("sender bus"), 2),
                "bottleneck": prof.bottleneck(),
                "implied Gb/s": round(
                    prof.predicted_goodput_bps() / 1e9, 2),
            })
        return rows
