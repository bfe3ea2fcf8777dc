"""Kernel build configuration: SMP vs UP.

The paper's "counterintuitive optimization" replaces the SMP kernel with
a uniprocessor build: the P4 Xeon SMP architecture pins each interrupt to
a single CPU, and the SMP kernel's locking and cache-line bouncing taxes
every per-packet operation without buying any receive-path parallelism.

:class:`KernelConfig` turns those qualitative statements into two
multipliers used by the cost model:

* ``per_packet_tax`` — factor on every per-packet kernel cost, and
* ``irq_tax`` — factor on interrupt entry/exit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TuningConfig

__all__ = ["KernelConfig", "SMP_PER_PACKET_TAX", "SMP_IRQ_TAX"]

#: SMP locking / cache-bounce multiplier on per-packet costs.  Calibrated
#: so the UP switch reproduces the paper's ~10% (9000 MTU) and ~20-25%
#: (1500 MTU) gains together with the queueing effects.
SMP_PER_PACKET_TAX = 1.18

#: SMP multiplier on interrupt entry/exit (all interrupts land on CPU0).
SMP_IRQ_TAX = 1.35


@dataclass(frozen=True)
class KernelConfig:
    """Derived kernel-build properties for a tuning state."""

    smp: bool

    @classmethod
    def from_tuning(cls, config: TuningConfig) -> "KernelConfig":
        """Kernel build matching a :class:`TuningConfig`."""
        return cls(smp=config.smp_kernel)

    @property
    def per_packet_tax(self) -> float:
        """Multiplier on per-packet stack processing costs."""
        return SMP_PER_PACKET_TAX if self.smp else 1.0

    @property
    def irq_tax(self) -> float:
        """Multiplier on interrupt handling costs."""
        return SMP_IRQ_TAX if self.smp else 1.0
