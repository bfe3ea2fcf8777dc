"""§3.5.4: 10GbE versus GbE, Myrinet and QsNet.

The peer numbers are the published figures the paper cites (Myricom's
GM datasheets, the authors' Quadrics experience, their own GbE work);
the 10GbE entries are produced by *our* simulation, and the comparison
percentages are recomputed, matching the paper's arithmetic:
"our established 10GbE throughput (4.11 Gb/s) is over 300% better than
GbE, over 120% better than Myrinet, and over 80% better than QsNet,
while our 19 µs latency is roughly 40% better than GbE and 50% better
than Myrinet/IP and QsNet/IP."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import MeasurementError
from repro.units import Gbps, us

__all__ = ["Interconnect", "INTERCONNECTS", "InterconnectComparison"]


@dataclass(frozen=True)
class Interconnect:
    """Published performance of one interconnect/API pairing."""

    name: str
    api: str
    unidirectional_bps: float
    latency_s: float
    hardware_limit_bps: Optional[float] = None
    needs_code_changes: bool = False

    @property
    def unidirectional_gbps(self) -> float:
        """Throughput in Gb/s."""
        return self.unidirectional_bps / 1e9

    @property
    def latency_us(self) -> float:
        """One-way latency in µs."""
        return self.latency_s * 1e6


#: §3.5.4's reference points.
INTERCONNECTS: Dict[str, Interconnect] = {
    "GbE/TCP": Interconnect(
        name="Gigabit Ethernet", api="TCP/IP",
        unidirectional_bps=Gbps(0.99), latency_s=us(31.5),
        hardware_limit_bps=Gbps(1.0)),
    "Myrinet/GM": Interconnect(
        name="Myrinet", api="GM",
        unidirectional_bps=Gbps(1.984), latency_s=us(6.5),
        hardware_limit_bps=Gbps(2.0), needs_code_changes=True),
    "Myrinet/IP": Interconnect(
        name="Myrinet", api="TCP/IP emulation",
        unidirectional_bps=Gbps(1.853), latency_s=us(30.0),
        hardware_limit_bps=Gbps(2.0)),
    "QsNet/Elan3": Interconnect(
        name="QsNet", api="Elan3",
        unidirectional_bps=Gbps(2.456), latency_s=us(4.9),
        hardware_limit_bps=Gbps(3.2), needs_code_changes=True),
    "QsNet/IP": Interconnect(
        name="QsNet", api="TCP/IP",
        unidirectional_bps=Gbps(2.24), latency_s=us(29.0),
        hardware_limit_bps=Gbps(3.2)),
}


class InterconnectComparison:
    """Compare a measured 10GbE result against the §3.5.4 peers."""

    def __init__(self, tengbe_bps: float, tengbe_latency_s: float,
                 label: str = "10GbE/TCP (measured)"):
        if tengbe_bps <= 0 or tengbe_latency_s <= 0:
            raise MeasurementError("10GbE figures must be positive")
        self.tengbe = Interconnect(
            name="10-Gigabit Ethernet", api="TCP/IP",
            unidirectional_bps=tengbe_bps, latency_s=tengbe_latency_s,
            hardware_limit_bps=Gbps(8.5))
        self.label = label

    def throughput_advantage(self, key: str) -> float:
        """Fractional throughput advantage over a peer: the paper's
        'over 300% better' is ``(ours / theirs) - 1``."""
        peer = self._peer(key)
        return self.tengbe.unidirectional_bps / peer.unidirectional_bps - 1.0

    def latency_ratio(self, key: str) -> float:
        """Ours / theirs (the conclusion's '1.7x slower than
        Myrinet/GM' is this ratio)."""
        return self.tengbe.latency_s / self._peer(key).latency_s

    def rows(self) -> List[Dict[str, object]]:
        """Comparison table rows for reporting."""
        out: List[Dict[str, object]] = []
        for key, peer in INTERCONNECTS.items():
            out.append({
                "interconnect": key,
                "peer_gbps": round(peer.unidirectional_gbps, 3),
                "peer_latency_us": round(peer.latency_us, 1),
                "throughput_advantage_pct":
                    round(self.throughput_advantage(key) * 100.0, 1),
                "latency_ratio": round(self.latency_ratio(key), 2),
                "needs_code_changes": peer.needs_code_changes,
            })
        return out

    @staticmethod
    def _peer(key: str) -> Interconnect:
        try:
            return INTERCONNECTS[key]
        except KeyError:
            raise MeasurementError(
                f"unknown interconnect {key!r}; known: "
                f"{sorted(INTERCONNECTS)}") from None
