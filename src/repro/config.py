"""Host/NIC/TCP tuning configuration — the knobs the paper turns.

:class:`TuningConfig` collects every optimization the case study applies:

* MTU (1500 standard, 9000 jumbo, 8160 allocator-friendly, 16000 max),
* PCI-X maximum memory read byte count (MMRBC burst size),
* SMP vs uniprocessor kernel,
* TCP socket buffer sizes (``/proc/sys/net/ipv4/tcp_rmem`` etc.),
* interrupt-coalescing delay,
* TCP timestamps and window scaling,
* transmit queue length, checksum offload.

The named constructors (:meth:`TuningConfig.stock`, ...) correspond to the
paper's cumulative optimization steps in §3.3.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError
from repro.units import KB

__all__ = ["TuningConfig", "VALID_MMRBC", "MAX_ADAPTER_MTU", "MIN_MTU"]

#: PCI-X MMRBC register accepts these burst sizes (bytes).
VALID_MMRBC = (512, 1024, 2048, 4096)

#: Largest MTU the Intel PRO/10GbE adapter supports (paper §3.3).
MAX_ADAPTER_MTU = 16000

#: Smallest MTU we accept (Ethernet v2 minimum payload region).
MIN_MTU = 576


@dataclass(frozen=True)
class TuningConfig:
    """One complete tuning state for a host + adapter + TCP stack.

    Instances are immutable; derive variants with :meth:`replace`.
    """

    mtu: int = 1500
    mmrbc: int = 512
    smp_kernel: bool = True
    tcp_rmem: int = KB(64)
    tcp_wmem: int = KB(64)
    interrupt_coalescing_us: float = 5.0
    tcp_timestamps: bool = True
    window_scaling: bool = True
    txqueuelen: int = 100
    checksum_offload: bool = True
    # --- §3.5.3 / §5 forward-looking offloads (extensions) ---
    #: aLAST-style header-parsing engine: the adapter places payloads of
    #: established connections directly in user memory; only headers
    #: take the kernel path (§3.5.3, "Breaking the Bottlenecks").
    header_splitting: bool = False
    #: OS-bypass / RDMA-over-IP projection (§5: "would result in
    #: throughput approaching 8 Gb/s, end-to-end latencies below 10 µs,
    #: and a CPU load approaching zero").
    os_bypass: bool = False
    #: Communication Streaming Architecture: the adapter hangs off the
    #: memory controller hub, bypassing the PCI-X bus entirely (§3.5.3).
    csa: bool = False

    def __post_init__(self) -> None:
        if not (MIN_MTU <= self.mtu <= MAX_ADAPTER_MTU):
            raise ConfigError(
                f"MTU {self.mtu} outside adapter range "
                f"[{MIN_MTU}, {MAX_ADAPTER_MTU}]")
        if self.mmrbc not in VALID_MMRBC:
            raise ConfigError(
                f"MMRBC {self.mmrbc} invalid; must be one of {VALID_MMRBC}")
        if self.tcp_rmem < KB(4) or self.tcp_wmem < KB(4):
            raise ConfigError("socket buffers must be at least 4 KB")
        if self.interrupt_coalescing_us < 0:
            raise ConfigError("interrupt coalescing delay cannot be negative")
        if self.txqueuelen < 1:
            raise ConfigError("txqueuelen must be >= 1")
        if self.os_bypass and self.header_splitting:
            raise ConfigError(
                "os_bypass already places data directly; combining it "
                "with header_splitting is contradictory")

    # -- derivation ---------------------------------------------------------
    def replace(self, **changes: Any) -> "TuningConfig":
        """A copy with ``changes`` applied (validated)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """Short label in the style of the paper's figure legends,
        e.g. ``"9000MTU,SMP,512PCI,64kbuf"``."""
        kernel = "SMP" if self.smp_kernel else "UP"
        buf = f"{self.tcp_rmem // 1024}kbuf"
        return f"{self.mtu}MTU,{kernel},{self.mmrbc}PCI,{buf}"

    # -- the paper's named configurations (§3.3) ------------------------------
    @classmethod
    def stock(cls, mtu: int = 1500) -> "TuningConfig":
        """Out-of-box Dell PE2650: SMP kernel, MMRBC 512, 64 KB buffers."""
        return cls(mtu=mtu)

    @classmethod
    def with_pcix_burst(cls, mtu: int = 9000) -> "TuningConfig":
        """Stock + MMRBC raised to 4096 bytes."""
        return cls(mtu=mtu, mmrbc=4096)

    @classmethod
    def oversized_windows(cls, mtu: int = 9000,
                          buf: int = KB(256)) -> "TuningConfig":
        """+ 256 KB socket buffers (four times the default)."""
        return cls(mtu=mtu, mmrbc=4096, smp_kernel=False,
                   tcp_rmem=buf, tcp_wmem=buf)

    @classmethod
    def fully_tuned(cls, mtu: int = 8160) -> "TuningConfig":
        """All LAN/SAN optimizations; MTU defaults to the allocator-friendly
        8160 bytes that produced the paper's 4.11 Gb/s peak."""
        return cls(mtu=mtu, mmrbc=4096, smp_kernel=False,
                   tcp_rmem=KB(256), tcp_wmem=KB(256))

    @classmethod
    def with_header_splitting(cls, mtu: int = 8160) -> "TuningConfig":
        """§3.5.3 proposal: fully tuned + an aLAST-style header-parsing
        engine placing payload directly into user memory."""
        return cls(mtu=mtu, mmrbc=4096, smp_kernel=False,
                   tcp_rmem=KB(256), tcp_wmem=KB(256),
                   header_splitting=True)

    @classmethod
    def os_bypass_projection(cls, mtu: int = 9000) -> "TuningConfig":
        """§5 projection: an OS-bypass (RDMA-over-IP-style) protocol on a
        programmable adapter — throughput toward 8 Gb/s, latency below
        10 µs, CPU load approaching zero."""
        return cls(mtu=mtu, mmrbc=4096, smp_kernel=False,
                   tcp_rmem=KB(1024), tcp_wmem=KB(1024),
                   interrupt_coalescing_us=0.0, tcp_timestamps=False,
                   os_bypass=True)

    @classmethod
    def wan_tuned(cls, buf: int) -> "TuningConfig":
        """§4 WAN configuration: jumbo frames, large txqueuelen, socket
        buffers sized to the path bandwidth-delay product."""
        return cls(mtu=9000, mmrbc=4096, smp_kernel=True,
                   tcp_rmem=buf, tcp_wmem=buf,
                   txqueuelen=10000, window_scaling=True)
