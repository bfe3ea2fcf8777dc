"""Unit tests for chipsets, host specs and the memory subsystem."""

import pytest

from repro.config import TuningConfig
from repro.errors import ConfigError
from repro.hw.calibration import CostModel
from repro.hw.chipset import CHIPSETS, Chipset
from repro.hw.memory import MemorySubsystem
from repro.hw.pcix import pcix_peak_bps
from repro.hw.presets import (
    GBE_HOST,
    HostSpec,
    INTEL_E7505,
    ITANIUM2,
    PE2650,
    PE4600,
    WAN_HOST,
)
from repro.units import Gbps


class TestChipsets:
    def test_paper_theoretical_numbers(self):
        # §3.1: PE2650 = 25.6 / 25.6 / 8.5 Gb/s (CPU/mem/PCI-X)
        gcle = CHIPSETS["GC-LE"]
        assert gcle.cpu_bw_bps == Gbps(25.6)
        assert gcle.mem_bw_bps == Gbps(25.6)
        assert gcle.pcix_bw_bps == Gbps(8.5)
        # PE4600 = 25.6 / 51.2 / 6.4
        gche = CHIPSETS["GC-HE"]
        assert gche.mem_bw_bps == Gbps(51.2)
        assert gche.pcix_bw_bps == Gbps(6.4)
        # E7505 = 34 / 25.6 / 6.4
        e = CHIPSETS["E7505"]
        assert e.cpu_bw_bps == Gbps(34.0)

    def test_stream_figures(self):
        # §3.5.2: PE4600 STREAM = 12.8 Gb/s, ~50% above PE2650;
        # E7505 within a few percent of the PE2650
        pe4600 = CHIPSETS["GC-HE"].stream_copy_bps
        pe2650 = CHIPSETS["GC-LE"].stream_copy_bps
        e7505 = CHIPSETS["E7505"].stream_copy_bps
        assert pe4600 == pytest.approx(Gbps(12.8))
        assert pe4600 / pe2650 == pytest.approx(1.5, rel=0.05)
        assert abs(e7505 - pe2650) / pe2650 < 0.05

    def test_invalid_chipset_fields(self):
        with pytest.raises(ConfigError):
            Chipset("bad", 0, 1, 1, 0.5)
        with pytest.raises(ConfigError):
            Chipset("bad", 1, 1, 1, 1.5)


class TestHostSpecs:
    def test_pe2650(self):
        assert PE2650.cpu_ghz == 2.2
        assert PE2650.fsb_mhz == 400
        assert PE2650.pcix_mhz == 133
        assert pcix_peak_bps(PE2650.pcix_mhz) == pytest.approx(Gbps(8.512),
                                                              rel=0.01)

    def test_pe4600_slower_bus(self):
        assert PE4600.pcix_mhz == 100
        assert pcix_peak_bps(PE4600.pcix_mhz) == pytest.approx(Gbps(6.4))

    def test_e7505_faster_fsb(self):
        assert INTEL_E7505.fsb_mhz == 533
        assert INTEL_E7505.cpu_ghz == 2.66

    def test_itanium_parallel_rx(self):
        assert ITANIUM2.parallel_rx_cpus == 4
        assert PE2650.parallel_rx_cpus == 1

    def test_wan_host(self):
        assert WAN_HOST.cpu_ghz == 2.4
        assert WAN_HOST.memory_gb == 2

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            HostSpec("x", cpu_ghz=0, n_cpus=1, fsb_mhz=400,
                     chipset="GC-LE", pcix_mhz=133)
        with pytest.raises(ConfigError):
            HostSpec("x", cpu_ghz=1, n_cpus=1, fsb_mhz=400,
                     chipset="NOPE", pcix_mhz=133)
        with pytest.raises(ConfigError):
            HostSpec("x", cpu_ghz=1, n_cpus=1, fsb_mhz=400,
                     chipset="GC-LE", pcix_mhz=90)
        with pytest.raises(ConfigError):
            HostSpec("x", cpu_ghz=1, n_cpus=1, fsb_mhz=400,
                     chipset="GC-LE", pcix_mhz=133, parallel_rx_cpus=2)


class TestMemorySubsystem:
    def test_stream_benchmark_matches_chipset(self):
        mem = MemorySubsystem(PE2650)
        assert mem.stream_benchmark() == PE2650.stream_copy_bps

    def test_fsb_touch_scales_with_clock(self):
        # header splitting leaves only the FSB-limited touch on receive
        config = TuningConfig.with_header_splitting(8160)
        t_400 = CostModel(PE2650, config).rx_copy_s(1000)
        t_533 = CostModel(INTEL_E7505, config).rx_copy_s(1000)
        assert t_533 < t_400
        assert t_400 / t_533 == pytest.approx(533 / 400, rel=0.01)

    def test_copy_engine_priced_from_stream(self):
        eng = MemorySubsystem(PE2650).copy_engine()
        assert eng.stream_copy_bps == PE2650.stream_copy_bps
