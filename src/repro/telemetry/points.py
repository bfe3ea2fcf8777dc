"""Catalog of named instrumentation points.

Every ``TraceBuffer.post`` call site in the simulator uses one of the
names below.  The catalog is the contract between the instrumented
layers and the exporters: tests assert that every point posted during a
run is registered here, and :mod:`docs/OBSERVABILITY.md` renders this
table as the user-facing reference.

Layer prefixes mirror the source tree: ``pcix``/``mch``/``nic``/``irq``
(hw), ``skbuff``/``copy``/``host`` (oskernel boundary), ``tcp`` (tcp),
``switch``/``wan``/``pos`` (net), ``chaos`` (fault injection),
``cache`` (result cache), ``pool`` (persistent worker pool).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["InstrumentationPoint", "CATALOG", "layer_of", "LAYER_TITLES",
           "catalog_by_layer", "render_catalog_markdown"]


@dataclass(frozen=True)
class InstrumentationPoint:
    """One named trace point: where it fires and what it means."""

    name: str
    layer: str
    description: str


_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # -- hardware: I/O bus ----------------------------------------------------
    ("pcix.dma", "hw",
     "PCI-X DMA transfer completed (bytes, bursts, MMRBC in effect)"),
    ("mch.dma", "hw",
     "Memory-controller-hub (CSA) DMA transfer completed"),
    # -- hardware: NIC tx -----------------------------------------------------
    ("nic.tx.queue", "hw", "Frame accepted into the adapter tx queue"),
    ("nic.tx.drop", "hw", "Frame dropped at the full adapter tx queue"),
    ("nic.tx.wire", "hw", "Frame serialized onto the wire"),
    ("nic.tso.split", "hw",
     "TSO engine split an oversized send into wire-MTU frames"),
    ("nic.tx.train", "hw",
     "Transmit engine closed a segment train (frames DMA'd back-to-back "
     "as one burst; wire_frames counts TSO splits)"),
    ("nic.tx_train_frames", "hw",
     "Counter point: frames carried by closed transmit trains"),
    # -- hardware: NIC rx + interrupts ---------------------------------------
    ("nic.rx.frame", "hw", "Frame arrived from the wire into the rx ring"),
    ("nic.rx.drop", "hw", "Frame dropped at the full rx descriptor ring"),
    ("nic.rx.dma", "hw", "Rx frame DMA'd to host memory"),
    ("irq.coalesce.arm", "hw", "Interrupt moderation timer armed"),
    ("irq.coalesce.fire", "hw",
     "Coalesced interrupt fired (batch = frames per interrupt)"),
    # -- OS kernel boundary ---------------------------------------------------
    ("host.rx.dispatch", "oskernel",
     "Interrupt handler dispatched rx frames to the protocol layer"),
    ("skbuff.alloc", "oskernel", "sk_buff allocated from the buddy allocator"),
    ("skbuff.free", "oskernel", "sk_buff returned to the buddy allocator"),
    ("skbuff.wmem.charge", "oskernel",
     "Send-socket memory charged for a queued segment"),
    ("skbuff.rmem.charge", "oskernel",
     "Receive-socket memory charged for a buffered segment"),
    ("copy.tx", "oskernel", "User-to-kernel copy on the transmit path"),
    ("copy.rx", "oskernel", "Kernel-to-user copy on the receive path"),
    # -- TCP ------------------------------------------------------------------
    ("tcp.tx.write", "tcp", "Application write accepted by the sender"),
    ("tcp.tx.block", "tcp", "Application write blocked on send-buffer space"),
    ("tcp.tx.segment", "tcp", "Segment transmitted (seq, len)"),
    ("tcp.tx.retransmit", "tcp", "Segment retransmitted (RTO or fast rtx)"),
    ("tcp.cwnd.update", "tcp",
     "Congestion window changed (cwnd, ssthresh, phase)"),
    ("tcp.rto.fire", "tcp", "Retransmission timeout expired"),
    ("tcp.fastrtx", "tcp", "Fast retransmit triggered by duplicate ACKs"),
    ("tcp.rx.deliver", "tcp", "In-order data delivered to the application"),
    ("tcp.rx.ack", "tcp", "ACK emitted by the receiver"),
    ("tcp.rx.ooo", "tcp", "Out-of-order segment buffered"),
    ("tcp.rx.dup", "tcp", "Duplicate segment discarded"),
    ("tcp.delack.fire", "tcp", "Delayed-ACK timer fired"),
    # -- network --------------------------------------------------------------
    ("switch.enqueue", "net", "Frame queued on a switch output port"),
    ("switch.drop", "net", "Frame dropped at a full switch output queue"),
    ("switch.forward", "net", "Frame forwarded out of a switch port"),
    ("wan.enqueue", "net", "Packet queued at a WAN router"),
    ("wan.drop", "net", "Packet dropped at a full WAN router queue"),
    ("wan.forward", "net", "Packet forwarded by a WAN router"),
    ("pos.tx", "net", "Packet serialized onto a POS circuit"),
    # -- chaos engine ---------------------------------------------------------
    ("chaos.fault_armed", "chaos",
     "Fault plan entry resolved its targets at simulation start "
     "(matched = components wrapped)"),
    ("chaos.fault_fired", "chaos", "Fault window opened"),
    ("chaos.fault_recovered", "chaos",
     "Fault window closed; degraded state restored"),
    ("chaos.frame_drop", "chaos",
     "Frame destroyed by an open fault window (flap/loss/corruption/"
     "reset)"),
    ("chaos.frame_hold", "chaos",
     "Frame delayed by an open fault window (reorder/NIC stall)"),
    ("chaos.frame_dup", "chaos",
     "Stale copy of a frame delivered by a duplicate fault"),
    ("chaos.unmatched", "chaos",
     "Fault plan entry matched no component in this topology "
     "(armed as a no-op)"),
    # -- result cache ---------------------------------------------------------
    ("cache.hits", "cache",
     "Counter point: result-cache lookups answered from the hot tier or "
     "disk store"),
    ("cache.misses", "cache",
     "Counter point: result-cache lookups that fell through to "
     "recomputation"),
    ("cache.evictions", "cache",
     "Counter point: entries evicted to honour REPRO_CACHE_MAX_BYTES "
     "(least recently used first)"),
    ("cache.bytes", "cache",
     "Gauge point: on-disk footprint of the result cache after the last "
     "store or eviction"),
    # -- worker pool ----------------------------------------------------------
    ("pool.tasks_dispatched", "pool",
     "Counter point: sweep points dispatched to worker processes "
     "(cache hits never dispatch)"),
    ("pool.reuse", "pool",
     "Counter point: dispatches served by an already-warm persistent "
     "worker pool instead of spawning one"),
)

#: name -> :class:`InstrumentationPoint`, the authoritative catalog.
CATALOG: Dict[str, InstrumentationPoint] = {
    name: InstrumentationPoint(name, layer, desc)
    for name, layer, desc in _POINTS
}


def layer_of(point: str) -> str:
    """Layer of a (possibly uncataloged) point, by prefix heuristics."""
    entry = CATALOG.get(point)
    if entry is not None:
        return entry.layer
    return point.split(".", 1)[0]


#: Layer key -> user-facing section title, in documentation order.
LAYER_TITLES: Tuple[Tuple[str, str], ...] = (
    ("hw", "Hardware"),
    ("oskernel", "Kernel boundary"),
    ("tcp", "TCP"),
    ("net", "Network"),
    ("chaos", "Chaos engine"),
    ("cache", "Result cache"),
    ("pool", "Worker pool"),
)


def catalog_by_layer() -> Dict[str, List[InstrumentationPoint]]:
    """Catalog entries grouped by layer, preserving catalog order."""
    grouped: Dict[str, List[InstrumentationPoint]] = {
        layer: [] for layer, _ in LAYER_TITLES}
    for point in CATALOG.values():
        grouped.setdefault(point.layer, []).append(point)
    return grouped


def render_catalog_markdown() -> str:
    """The instrumentation-point reference as markdown tables.

    ``docs/OBSERVABILITY.md`` embeds exactly this text between its
    ``BEGIN/END GENERATED CATALOG`` markers; a unit test diffs the two,
    so the catalog and its documentation can never drift apart again.
    Multi-line descriptions collapse to one line for table cells.
    """
    grouped = catalog_by_layer()
    known = {layer for layer, _ in LAYER_TITLES}
    stray = sorted({p.layer for p in CATALOG.values()} - known)
    if stray:  # a new layer must be given a documented title first
        raise ValueError(f"layers missing from LAYER_TITLES: {stray}")
    sections = []
    for layer, title in LAYER_TITLES:
        points = grouped[layer]
        lines = [f"#### {title} ({len(points)})", "",
                 "| point | fires when |", "|---|---|"]
        for point in points:
            desc = " ".join(point.description.split())
            lines.append(f"| `{point.name}` | {desc} |")
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"
