"""Unit tests for the PCI-X bus model."""

import pytest

from repro.errors import ConfigError
from repro.sim import Environment
from repro.hw.pcix import PciXBus, pcix_peak_bps
from repro.hw.presets import PE2650


@pytest.fixture
def bus():
    return PciXBus(Environment(), clock_mhz=133,
                   burst_overhead_s=PE2650.pcix_burst_overhead_s)


def effective_bps(bus, nbytes, mmrbc):
    """Payload rate of back-to-back transfers of ``nbytes``."""
    return nbytes * 8.0 / bus.transfer_time(nbytes, mmrbc)


def test_peak_bandwidth(bus):
    # 133 MHz x 64 bit = 8.512 Gb/s (the paper rounds to 8.5)
    assert pcix_peak_bps(bus.clock_mhz) == pytest.approx(8.512e9)


def test_invalid_clock():
    with pytest.raises(ConfigError):
        PciXBus(Environment(), clock_mhz=90, burst_overhead_s=0.0)


def test_transfer_time_includes_burst_overhead(bus):
    t_512 = bus.transfer_time(9018, mmrbc=512)
    t_4096 = bus.transfer_time(9018, mmrbc=4096)
    assert t_4096 < t_512
    # data time is identical; difference is pure burst count
    bursts_512 = -(-9018 // 512)
    bursts_4096 = -(-9018 // 4096)
    expected_delta = (bursts_512 - bursts_4096) * bus.burst_overhead_s
    assert t_512 - t_4096 == pytest.approx(expected_delta)


def test_effective_bandwidth_brackets_paper(bus):
    """Calibration targets: MMRBC 512 caps 9018-byte frames near
    2.8 Gb/s (stock Fig. 3 peak region); 4096 lifts it well above the
    observed 3.6-4.1 Gb/s host limits."""
    eff_512 = effective_bps(bus, 9018, 512)
    eff_4096 = effective_bps(bus, 9018, 4096)
    assert 2.5e9 < eff_512 < 3.1e9
    assert eff_4096 > 6.0e9


def test_small_frames_less_sensitive_to_mmrbc(bus):
    """§3.3: raising the burst size is 'marginal' for 1500-byte MTUs."""
    gain_1500 = effective_bps(bus, 1518, 4096) / effective_bps(bus, 1518, 512)
    gain_9000 = effective_bps(bus, 9018, 4096) / effective_bps(bus, 9018, 512)
    assert gain_9000 > gain_1500


def test_invalid_transfer_args(bus):
    with pytest.raises(ConfigError):
        bus.transfer_time(100, mmrbc=777)
    with pytest.raises(ConfigError):
        bus.transfer_time(0, mmrbc=512)


def test_charge_transfer_holds_the_transfer_time(bus):
    """Back-to-back charges queue by exactly transfer_time each, for a
    size seen before (the memoised hold) and a new one alike."""
    t_9018 = bus.transfer_time(9018, 4096)
    t_1518 = bus.transfer_time(1518, 512)
    assert bus.charge_transfer(9018, 4096) == (0.0, t_9018)
    assert bus.charge_transfer(9018, 4096) == (t_9018, t_9018 + t_9018)
    end = t_9018 + t_9018
    assert bus.charge_transfer(1518, 512) == (end, end + t_1518)


@pytest.mark.parametrize("nbytes, mmrbc", [(100, 777), (0, 512)])
def test_charge_transfer_rejects_bad_args_every_time(bus, nbytes, mmrbc):
    for _ in range(2):
        with pytest.raises(ConfigError):
            bus.charge_transfer(nbytes, mmrbc)
    # the refused charges took no bus time
    assert bus.charge_transfer(4096, 4096) == (
        0.0, bus.transfer_time(4096, 4096))


def test_dma_serializes_on_the_bus():
    env = Environment()
    bus = PciXBus(env, clock_mhz=133,
                  burst_overhead_s=PE2650.pcix_burst_overhead_s)
    done = []

    def xfer(tag):
        yield from bus.dma(4096, 4096)
        done.append((tag, env.now))

    env.process(xfer("a"))
    env.process(xfer("b"))
    env.run()
    t = bus.transfer_time(4096, 4096)
    assert done[0] == ("a", pytest.approx(t))
    assert done[1] == ("b", pytest.approx(2 * t))
    assert bus.bytes_moved == 8192


def test_utilization_tracks_busy_fraction():
    env = Environment()
    bus = PciXBus(env, clock_mhz=133,
                  burst_overhead_s=PE2650.pcix_burst_overhead_s)

    def xfer():
        yield from bus.dma(8192, 4096)

    env.process(xfer())
    env.run()
    busy = bus.transfer_time(8192, 4096)
    env.run(until=2 * busy)
    assert bus.utilization() == pytest.approx(0.5, rel=0.01)
