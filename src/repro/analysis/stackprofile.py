"""Per-packet stack cost accounting — the paper's §5 follow-on work.

"To continue this work, we are currently instrumenting the Linux TCP
stack with MAGNET to perform per-packet profiling and tracing of the
stack's control path...  Analysis of this data is giving us an
unprecedentedly high-resolution picture of the most expensive aspects
of TCP processing overhead."

:class:`StackProfiler` produces that picture for the simulated stack:
it decomposes the cost of moving one write end-to-end into the named
stages of the cost model (syscall, TCP transmit, allocation, copies,
DMA, wire, interrupt, TCP receive, wakeup) and reports both per-packet
budgets and their share of the bottleneck — i.e. *where the time goes*
at each MTU, which is exactly the question §3.5.2 answers informally.
The binding location's budget is also the capacity of
:func:`~repro.tcp.analytic.predict_throughput_bps`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Dict, List

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.hw.calibration import Calibration, CostModel, DEFAULT_CALIBRATION
from repro.hw.presets import HostSpec, PE2650
from repro.tcp.mss import mss_for_mtu
from repro.units import Gbps

__all__ = ["StageCost", "StackProfile", "StackProfiler", "segment_sizes"]


@dataclass(frozen=True)
class StageCost:
    """One stage's share of a write's journey."""

    stage: str
    where: str           # "sender CPU" / "bus" / "wire" / "receiver CPU"
    seconds: float
    overlappable: bool   # pipelined stages do not bind throughput alone


@dataclass
class StackProfile:
    """The full decomposition for one (platform, config, write)."""

    spec_name: str
    config_label: str
    payload: int
    stages: List[StageCost]
    #: serial seconds per location; the stages there are its display
    #: split (an init-only argument, so not a dataclass field)
    budgets: InitVar[Dict[str, float]]

    def __post_init__(self, budgets: Dict[str, float]) -> None:
        self._budgets = budgets

    def seconds(self, where: str) -> float:
        """Serial seconds the write costs at one location."""
        return self._budgets[where]

    def bottleneck(self) -> str:
        """The location whose serial work is largest (what binds)."""
        return max(self._budgets, key=self._budgets.get)

    def predicted_goodput_bps(self) -> float:
        """Payload rate implied by the binding location."""
        worst = max(self._budgets.values())
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
                "us/segment": round(s.seconds * 1e6, 2),
                "share": f"{s.seconds / total * 100:.0f}%",
            })
        return out


def segment_sizes(payload: int, mss: int) -> List[int]:
    """Segment sizes of one write (writes are flushed, never coalesced)."""
    full, rest = divmod(payload, mss)
    sizes = [mss] * full
    if rest:
        sizes.append(rest)
    return sizes


#: (stage, where, overlappable) of every stage charged per segment, in
#: display order; the write() syscall precedes them, once per write.
_SEGMENT_STAGES = (
    ("TCP/IP transmit + descriptor", "sender CPU", False),
    ("skb allocation (tx)", "sender CPU", False),
    ("user->kernel copy", "sender CPU", False),
    ("ACK processing (amortised)", "sender CPU", False),
    ("DMA to adapter", "sender bus", True),
    ("wire serialization", "wire", True),
    ("DMA to host memory", "receiver bus", True),
    ("interrupt service (amortised)", "receiver CPU", False),
    ("TCP/IP receive", "receiver CPU", False),
    ("skb allocation (rx)", "receiver CPU", False),
    ("data movement (FSB + copy)", "receiver CPU", False),
    ("ACK generation (amortised)", "receiver CPU", False),
    ("reader wakeup", "receiver CPU", False),
)


class StackProfiler:
    """Decompose the cost of one write of a configuration."""

    def __init__(self, spec: HostSpec = PE2650,
                 calibration: Calibration = DEFAULT_CALIBRATION,
                 wire_bps: float = Gbps(10)):
        self.spec = spec
        self.calibration = calibration
        self.wire_bps = wire_bps

    def profile(self, config: TuningConfig,
                payload: int = 0) -> StackProfile:
        """Stage costs for one write of ``payload`` bytes (one MSS when
        not given), split into segments as the sender sends it: the
        ``write()`` syscall once, every other stage summed over the
        segments."""
        costs = CostModel(self.spec, config, self.calibration)
        mss = mss_for_mtu(config.mtu, config.tcp_timestamps)
        if payload <= 0:
            payload = mss
        sizes = segment_sizes(payload, mss)
        columns = zip(*(self._segment_stages(costs, size) for size in sizes))
        stages = [StageCost("write() syscall", "sender CPU",
                            costs.tx_syscall_s(), False)]
        stages += [StageCost(stage, where, sum(column), overlappable)
                   for (stage, where, overlappable), column
                   in zip(_SEGMENT_STAGES, columns)]
        # One total per location, in stage order (bottleneck() breaks
        # ties by it).  The bus and the wire have one stage each.  A
        # CPU's total adds the cost model's per-segment costs, which
        # its stages split; their sum can miss it by an ulp.  The
        # receiver takes one interrupt and one reader wakeup per
        # segment and sends an ACK every second one.
        budgets = {s.where: s.seconds for s in stages}
        budgets["sender CPU"] = costs.tx_syscall_s() + sum(
            costs.tx_segment_s(size) + 0.5 * costs.tx_ack_rx_s()
            for size in sizes)
        budgets["receiver CPU"] = sum(
            costs.rx_irq_s() + costs.rx_segment_s(size)
            + 0.5 * costs.rx_ack_gen_s() + costs.rx_wake_s()
            for size in sizes)
        return StackProfile(spec_name=self.spec.name,
                            config_label=config.describe(),
                            payload=payload, stages=stages, budgets=budgets)

    def _segment_stages(self, costs: CostModel, payload: int):
        """One segment's cost per entry of :data:`_SEGMENT_STAGES`."""
        config = costs.config
        frame = costs.frame_bytes(payload)

        # decompose tx_segment_s into its documented parts
        tx_total = costs.tx_segment_s(payload)
        # direct data placement allocates no skb on either side
        tx_alloc = 0.0 if config.os_bypass else costs.alloc_cost_s(frame)
        tx_copy = costs.tx_copy_s(payload)
        tx_proto = max(0.0, tx_total - tx_alloc - tx_copy)

        rx_total = costs.rx_segment_s(payload)
        if config.os_bypass:
            rx_alloc = 0.0
        elif config.header_splitting:
            rx_alloc = costs.alloc_cost_s(128)
        else:
            rx_alloc = costs.alloc_cost_s(frame)
        rx_bytes = costs.rx_copy_s(payload)
        rx_proto = max(0.0, rx_total - rx_alloc - rx_bytes)
        dma = costs.dma_hold_s(frame)

        return (tx_proto, tx_alloc, tx_copy, 0.5 * costs.tx_ack_rx_s(),
                dma, costs.wire_time_s(frame, self.wire_bps), dma,
                costs.rx_irq_s(), rx_proto, rx_alloc, rx_bytes,
                0.5 * costs.rx_ack_gen_s(), costs.rx_wake_s())

    def compare(self, configs: Dict[str, TuningConfig]) -> List[Dict[str, object]]:
        """One summary row per configuration: totals + bottleneck."""
        rows = []
        for label, config in configs.items():
            prof = self.profile(config)
            rows.append({
                "config": label,
                "payload": prof.payload,
                "sender CPU (us)": round(prof.seconds("sender CPU") * 1e6, 2),
                "receiver CPU (us)": round(
                    prof.seconds("receiver CPU") * 1e6, 2),
                "bus (us)": round(prof.seconds("sender bus") * 1e6, 2),
                "bottleneck": prof.bottleneck(),
                "implied Gb/s": round(
                    prof.predicted_goodput_bps() / 1e9, 2),
            })
        return rows
