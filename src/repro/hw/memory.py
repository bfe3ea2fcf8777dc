"""Memory subsystem: STREAM-style bandwidth and the front-side bus.

The paper rules memory bandwidth out as the primary bottleneck (PE4600's
GC-HE has ~50% more STREAM bandwidth yet no more network throughput) and
points instead at the *front-side bus* — "the CPU's ability to move, but
not process, data".  The model therefore separates:

* ``stream_copy_bps`` — bulk copy bandwidth (memcpy, checksum), and
* the FSB-limited rate at which the kernel's per-byte bookkeeping
  (descriptor walks, skb touches, cache fills during protocol
  processing) proceeds; it scales with FSB clock, and
  :class:`~repro.hw.calibration.CostModel` prices it
  (``Calibration.rx_byte_fsb_ns_mhz``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.presets import HostSpec
from repro.oskernel.copyengine import CopyEngine

__all__ = ["MemorySubsystem"]


@dataclass(frozen=True)
class MemorySubsystem:
    """Bandwidth view of one host's memory hierarchy."""

    spec: HostSpec

    @property
    def theoretical_bps(self) -> float:
        """Chipset theoretical memory bandwidth."""
        return self.spec.chipset_model.mem_bw_bps

    @property
    def stream_copy_bps(self) -> float:
        """STREAM copy figure this platform measures."""
        return self.spec.stream_copy_bps

    def copy_engine(self) -> CopyEngine:
        """A :class:`CopyEngine` priced for this memory system."""
        return CopyEngine(stream_copy_bps=self.stream_copy_bps)

    def stream_benchmark(self) -> float:
        """What running STREAM on this host reports (bit/s).

        Kept as a method so the tools package has a 'measurement' to
        perform; the simulated measurement is exact.
        """
        return self.stream_copy_bps
