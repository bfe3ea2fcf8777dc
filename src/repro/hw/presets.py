"""Host specifications for every machine in the paper's testbed (§3.1, §4).

A :class:`HostSpec` is pure description — clock rates, bus widths,
chipset — from which :class:`~repro.hw.calibration.CostModel` derives the
per-packet and per-byte costs used by the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hw.chipset import CHIPSETS, Chipset

__all__ = ["HostSpec", "PE2650", "PE4600", "INTEL_E7505", "ITANIUM2",
           "WAN_HOST", "GBE_HOST"]


@dataclass(frozen=True)
class HostSpec:
    """One host platform.

    Attributes
    ----------
    name:
        Platform label used in reports.
    cpu_ghz:
        Core clock of one CPU.
    n_cpus:
        Socket count (affects load reporting, not receive-path
        parallelism: the P4 Xeon SMP of the era pinned each interrupt to
        one CPU — paper §3.3).
    fsb_mhz:
        Front-side bus clock; the paper identifies this as the likely
        differentiator between the PE2650 and the Intel E7505 systems.
    chipset:
        Key into :data:`repro.hw.chipset.CHIPSETS`.
    pcix_mhz:
        Clock of the PCI-X segment hosting the adapter (64-bit wide).
    memory_gb:
        Installed RAM (only reported, never binding at these workloads).
    parallel_rx_cpus:
        CPUs the platform can bring to bear on network processing.  The
        P4 Xeon systems pin each interrupt to one CPU (paper §3.3), so
        this is 1 for them regardless of socket count; the Itanium-II's
        SAPIC distributes interrupts, letting multiple aggregated flows
        be processed in parallel (how the quad reached 7.2 Gb/s, §3.4).
    """

    name: str
    cpu_ghz: float
    n_cpus: int
    fsb_mhz: int
    chipset: str
    pcix_mhz: int
    memory_gb: int = 1
    parallel_rx_cpus: int = 1
    #: Per-burst PCI-X overhead in nanoseconds: arbitration, address and
    #: attribute phases, target initial latency and split-completion
    #: turnaround.  The ServerWorks bridges of the Dell boxes pay ~960 ns
    #: per burst, so a 133 MHz bus moves 9018-byte frames at ~2.8 Gb/s
    #: with 512-byte bursts and ~7.1 Gb/s with 4096-byte bursts,
    #: bracketing the stock and optimized 9000-MTU Fig. 3 results; the
    #: Itanium-II's zx1-class chipset has a substantially better PCI-X
    #: implementation.
    pcix_burst_overhead_ns: float = 960.0

    def __post_init__(self) -> None:
        if self.pcix_burst_overhead_ns < 0:
            raise ConfigError(
                f"{self.name}: pcix_burst_overhead_ns cannot be negative")
        if not 1 <= self.parallel_rx_cpus <= self.n_cpus:
            raise ConfigError(
                f"{self.name}: parallel_rx_cpus must be in [1, n_cpus]")
        if self.cpu_ghz <= 0:
            raise ConfigError(f"{self.name}: cpu_ghz must be positive")
        if self.n_cpus < 1:
            raise ConfigError(f"{self.name}: n_cpus must be >= 1")
        if self.fsb_mhz <= 0:
            raise ConfigError(f"{self.name}: fsb_mhz must be positive")
        if self.chipset not in CHIPSETS:
            raise ConfigError(
                f"{self.name}: unknown chipset {self.chipset!r};"
                f" known: {sorted(CHIPSETS)}")
        if self.pcix_mhz not in (33, 66, 100, 133):
            raise ConfigError(
                f"{self.name}: pcix_mhz must be 33/66/100/133, got {self.pcix_mhz}")

    @property
    def chipset_model(self) -> Chipset:
        """The resolved :class:`Chipset`."""
        return CHIPSETS[self.chipset]

    @property
    def pcix_burst_overhead_s(self) -> float:
        """Per-burst PCI-X overhead in seconds."""
        return self.pcix_burst_overhead_ns * 1e-9

    @property
    def stream_copy_bps(self) -> float:
        """Expected STREAM copy bandwidth for this platform."""
        return self.chipset_model.stream_copy_bps


#: Dell PowerEdge 2650: dual 2.2 GHz Xeon, 400 MHz FSB, GC-LE,
#: dedicated 133 MHz PCI-X.  The workhorse of the LAN/SAN study.
PE2650 = HostSpec(name="PE2650", cpu_ghz=2.2, n_cpus=2, fsb_mhz=400,
                  chipset="GC-LE", pcix_mhz=133, memory_gb=1)

#: Dell PowerEdge 4600: dual 2.4 GHz Xeon, 400 MHz FSB, GC-HE,
#: dedicated 100 MHz PCI-X.  Higher memory bandwidth, same network perf.
PE4600 = HostSpec(name="PE4600", cpu_ghz=2.4, n_cpus=2, fsb_mhz=400,
                  chipset="GC-HE", pcix_mhz=100, memory_gb=1)

#: Intel-provided evaluation systems: dual 2.66 GHz Xeon, 533 MHz FSB,
#: E7505, 100 MHz PCI-X, 2 GB.  4.64 Gb/s essentially out of the box.
INTEL_E7505 = HostSpec(name="IntelE7505", cpu_ghz=2.66, n_cpus=2,
                       fsb_mhz=533, chipset="E7505", pcix_mhz=100,
                       memory_gb=2)

#: 1 GHz quad-processor Itanium-II (§3.4): 7.2 Gb/s with aggregated flows.
ITANIUM2 = HostSpec(name="Itanium2", cpu_ghz=1.0, n_cpus=4, fsb_mhz=400,
                    chipset="I2-NB", pcix_mhz=133, memory_gb=4,
                    parallel_rx_cpus=4, pcix_burst_overhead_ns=450.0)

#: §4 WAN endpoints: dual 2.4 GHz Xeon, 2 GB, dedicated 133 MHz PCI-X.
WAN_HOST = HostSpec(name="WanXeon24", cpu_ghz=2.4, n_cpus=2, fsb_mhz=400,
                    chipset="GC-LE", pcix_mhz=133, memory_gb=2)

#: Commodity GbE client used in the multi-flow aggregation tests.
GBE_HOST = HostSpec(name="GbEClient", cpu_ghz=2.0, n_cpus=1, fsb_mhz=400,
                    chipset="GC-LE", pcix_mhz=66, memory_gb=1)
