"""Unit tests for the cost model: the calibration contract."""

import pytest

from repro.analysis.stackprofile import StackProfiler
from repro.config import TuningConfig
from repro.errors import ConfigError
from repro.hw.calibration import Calibration, CostModel
from repro.hw.presets import INTEL_E7505, PE2650

#: The paper's uniprocessor-kernel step at 9000 MTU.
UP_9000 = TuningConfig(mtu=9000, mmrbc=4096, smp_kernel=False)


def cm(config=None, spec=PE2650):
    return CostModel(spec, config or TuningConfig.fully_tuned(9000))


def capacity_bps(where, config, mss, spec=PE2650):
    """The stack profile's ceiling at one CPU for MSS-sized writes."""
    return mss * 8.0 / StackProfiler(spec).profile(config, mss).seconds(where)


class TestScaling:
    def test_per_packet_scales_inverse_with_clock(self):
        cfg = UP_9000
        slow = CostModel(PE2650, cfg)       # 2.2 GHz
        fast = CostModel(INTEL_E7505, cfg)  # 2.66 GHz
        assert fast.tx_syscall_s() < slow.tx_syscall_s()
        ratio = slow.tx_syscall_s() / fast.tx_syscall_s()
        assert ratio == pytest.approx(2.66 / 2.2, rel=0.01)

    def test_smp_taxes_per_packet_costs(self):
        smp = cm(TuningConfig.with_pcix_burst(9000))
        up = cm(UP_9000)
        assert smp.tx_syscall_s() > up.tx_syscall_s()
        assert smp.rx_segment_s(8948) > up.rx_segment_s(8948)

    def test_timestamps_add_cost_and_disabled_removes_it(self):
        with_ts = cm(UP_9000)
        without = cm(UP_9000.replace(tcp_timestamps=False))
        assert with_ts.tx_segment_s(8948) > without.tx_segment_s(8948)
        assert with_ts.rx_segment_s(8948) > without.rx_segment_s(8948)

    def test_checksum_offload_saves_rx_time(self):
        offload = cm(UP_9000)
        no_offload = cm(UP_9000.replace(checksum_offload=False))
        assert no_offload.rx_segment_s(8948) > offload.rx_segment_s(8948)

    def test_allocator_order_penalty_visible(self):
        model = cm(TuningConfig.fully_tuned(9000))
        # 9000-MTU frames land in order-2 blocks; 8160 in order-1
        assert model.alloc_cost_s(9018) > model.alloc_cost_s(8178)


class TestCapacities:
    """The stack profile's ceilings the DES approaches (paper peaks)."""

    def test_tuned_capacities_bracket_paper_peaks(self):
        cases = [
            (1500, 1448, 2.47),
            (8160, 8108, 4.11),
            (9000, 8948, 3.90),
        ]
        for mtu, mss, paper in cases:
            got = capacity_bps("receiver CPU", TuningConfig.fully_tuned(mtu),
                               mss) / 1e9
            assert got == pytest.approx(paper, rel=0.08), (mtu, got)

    def test_mtu16000_capacity_above_8160(self):
        c16 = capacity_bps("receiver CPU", TuningConfig.fully_tuned(16000),
                           15948)
        c81 = capacity_bps("receiver CPU", TuningConfig.fully_tuned(8160),
                           8108)
        assert c16 > c81

    def test_tx_cheaper_than_rx(self):
        cfg = TuningConfig.fully_tuned(9000)
        assert (capacity_bps("sender CPU", cfg, 8948)
                > capacity_bps("receiver CPU", cfg, 8948))

    def test_e7505_beats_pe2650(self):
        cfg = TuningConfig(mtu=9000, mmrbc=4096, tcp_timestamps=False)
        e = capacity_bps("receiver CPU", cfg, 8948, spec=INTEL_E7505)
        p = capacity_bps("receiver CPU", TuningConfig.fully_tuned(9000), 8948)
        assert e > p


class TestCalibrationValidation:
    def test_negative_constant_rejected(self):
        with pytest.raises(ConfigError):
            Calibration(rx_irq_usghz=-1.0)

    def test_pktgen_cost_not_smp_taxed(self):
        smp = cm(TuningConfig.stock(9000))
        up = cm(UP_9000)
        assert smp.pktgen_loop_s() == up.pktgen_loop_s()

    def test_frame_bytes_accounts_for_timestamps(self):
        with_ts = cm(TuningConfig.fully_tuned(9000))
        without = cm(TuningConfig.fully_tuned(9000).replace(
            tcp_timestamps=False))
        assert with_ts.frame_bytes(1000) == without.frame_bytes(1000) + 12
