"""Unit tests for SMP/UP kernel configuration."""

from repro.config import TuningConfig
from repro.oskernel.kernelcfg import (
    KernelConfig,
    SMP_IRQ_TAX,
    SMP_PER_PACKET_TAX,
)


def test_from_tuning():
    smp = KernelConfig.from_tuning(TuningConfig.stock())
    assert smp.smp
    up = KernelConfig.from_tuning(
        TuningConfig(mtu=9000, mmrbc=4096, smp_kernel=False))
    assert not up.smp


def test_smp_taxes_applied():
    smp = KernelConfig(smp=True)
    assert smp.per_packet_tax == SMP_PER_PACKET_TAX > 1.0
    assert smp.irq_tax == SMP_IRQ_TAX > 1.0


def test_up_is_tax_free():
    up = KernelConfig(smp=False)
    assert up.per_packet_tax == 1.0
    assert up.irq_tax == 1.0
