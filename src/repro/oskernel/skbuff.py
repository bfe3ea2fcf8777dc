"""sk_buff: the unit of data moving through the simulated stack.

An :class:`SkBuff` describes one Ethernet frame's worth of data together
with its kernel accounting (``truesize``), exactly the quantity Linux
charges against socket buffers.  Frames are *descriptors only* — no
payload bytes are stored — so a simulated multi-gigabit flow costs a few
hundred bytes of Python per packet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.oskernel.allocator import SKB_OVERHEAD, block_size_for

__all__ = ["SkBuff", "ETH_HEADER", "ETH_OVERHEAD_WIRE", "IP_HEADER",
           "TCP_HEADER", "TCP_TIMESTAMP_OPT"]

#: Ethernet MAC header + frame check sequence (bytes in the frame).
ETH_HEADER = 18

#: Extra wire bytes per frame that never reach memory: preamble (8) +
#: inter-frame gap (12).
ETH_OVERHEAD_WIRE = 20

#: IPv4 header without options.
IP_HEADER = 20

#: TCP header without options.
TCP_HEADER = 20

#: TCP timestamp option bytes (10 + 2 padding), consumed from the MSS
#: when timestamps are enabled.
TCP_TIMESTAMP_OPT = 12

_ids = itertools.count(1)


@dataclass
class SkBuff:
    """One frame descriptor.

    Attributes
    ----------
    payload:
        TCP payload bytes carried.
    headers:
        IP + TCP (+options) bytes.
    kind:
        ``"data"``, ``"ack"`` or ``"raw"`` (pktgen).
    seq, end_seq, ack:
        TCP sequence bookkeeping (bytes).
    conn:
        Opaque connection identifier for demultiplexing at the receiver.
    sent_at:
        Simulation time the frame entered the wire path (for RTT).
    meta:
        Free-form extras (trace tags, flow ids).
    """

    payload: int
    headers: int = IP_HEADER + TCP_HEADER
    kind: str = "data"
    seq: int = 0
    end_seq: int = 0
    ack: int = -1
    conn: Any = None
    sent_at: float = 0.0
    ident: int = field(default_factory=lambda: next(_ids))
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.payload < 0:
            raise ValueError(f"negative payload: {self.payload}")
        if self.headers < 0:
            raise ValueError(f"negative headers: {self.headers}")
        # Sizes are pure functions of the immutable payload/headers pair
        # and are read on every hop of the data path, so they are
        # precomputed here instead of recomputed behind properties.
        #
        # frame_bytes: bytes stored in memory / crossing the I/O bus
        #   (payload + IP/TCP headers + Ethernet header).
        # wire_bytes: bytes occupying the wire, incl. preamble and IFG.
        # truesize: kernel memory charged for this skb — the
        #   power-of-two data block (the 2.4-era ``struct sk_buff``
        #   itself lives in a separate slab, counted via
        #   :data:`SKB_OVERHEAD` where relevant).  This is the quantity
        #   that makes an 8160-byte MTU fit an 8192-byte block while
        #   9000 bytes needs 16384 (paper §3.3).
        self.frame_bytes = self.payload + self.headers + ETH_HEADER
        self.wire_bytes = self.frame_bytes + ETH_OVERHEAD_WIRE
        self.truesize = block_size_for(self.frame_bytes)

    def copy_for_retransmit(self) -> "SkBuff":
        """A fresh descriptor with the same TCP identity (new frame id)."""
        return SkBuff(payload=self.payload, headers=self.headers,
                      kind=self.kind, seq=self.seq, end_seq=self.end_seq,
                      ack=self.ack, conn=self.conn,
                      meta=dict(self.meta, retransmit=True))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SkBuff #{self.ident} {self.kind} seq={self.seq}"
                f" len={self.payload} ack={self.ack}>")


def ip_tcp_header_bytes(timestamps: bool) -> int:
    """IP+TCP header bytes for a data segment given the timestamp option."""
    return IP_HEADER + TCP_HEADER + (TCP_TIMESTAMP_OPT if timestamps else 0)
