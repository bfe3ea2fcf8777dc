"""tcpdump: wire-level capture (§3.2).

Attach a :class:`Tcpdump` to any link to record every delivered frame —
time, kind, sequence range, ack and advertised window — the data the
paper used (together with MAGNET) to diagnose the inefficient window
behaviour of §3.5.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.oskernel.skbuff import SkBuff
from repro.sim.engine import Environment

__all__ = ["Tcpdump", "CaptureRecord"]


@dataclass(frozen=True)
class CaptureRecord:
    """One captured frame."""

    time: float
    kind: str
    seq: int
    end_seq: int
    ack: int
    payload: int
    window: Optional[int]


class Tcpdump:
    """Passive tap on a link: records then forwards every frame."""

    def __init__(self, env: Environment, link, max_frames: int = 1_000_000):
        self.env = env
        self.records: List[CaptureRecord] = []
        self.max_frames = max_frames
        self.dropped = 0
        self._inner = link.sink
        if self._inner is None:
            raise ValueError("tcpdump must attach after the link is connected")
        link.connect(self)

    def receive_frame(self, skb: SkBuff) -> None:
        """Record and forward."""
        if len(self.records) < self.max_frames:
            self.records.append(CaptureRecord(
                time=self.env.now, kind=skb.kind, seq=skb.seq,
                end_seq=skb.end_seq, ack=skb.ack, payload=skb.payload,
                window=skb.meta.get("win")))
        else:
            self.dropped += 1
        self._inner.receive_frame(skb)

    def acks(self) -> List[CaptureRecord]:
        """Only the ACK frames."""
        return [r for r in self.records if r.kind == "ack"]

    def advertised_windows(self) -> List[int]:
        """The advertised-window series (the §3.5.1 evidence)."""
        return [r.window for r in self.acks() if r.window is not None]
