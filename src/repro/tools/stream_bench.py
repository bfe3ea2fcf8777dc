"""STREAM: memory-bandwidth measurement (§3.2, §3.5.2).

The paper uses STREAM to rule memory bandwidth out as the bottleneck:
the PE4600 reports 12.8 Gb/s (≈50% above the PE2650) yet shows no extra
network throughput, and the Intel E7505 systems measure within a few
percent of the PE2650.  The simulated measurement returns the platform's
calibrated copy bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.memory import MemorySubsystem
from repro.hw.presets import HostSpec

__all__ = ["StreamResult", "stream_bench"]


@dataclass(frozen=True)
class StreamResult:
    """STREAM copy figure for one platform."""

    host: str
    copy_bps: float
    theoretical_bps: float

    @property
    def copy_gbps(self) -> float:
        """Copy bandwidth in Gb/s (the unit §3.5.2 quotes)."""
        return self.copy_bps / 1e9


def stream_bench(spec: HostSpec) -> StreamResult:
    """Run the (simulated) STREAM copy benchmark on a platform."""
    mem = MemorySubsystem(spec)
    return StreamResult(host=spec.name,
                        copy_bps=mem.stream_benchmark(),
                        theoretical_bps=mem.theoretical_bps)
