"""Unit tests for the closed-form models (Table 1, Fig. 8, §3.5.1)."""

import pytest

from repro.config import TuningConfig
from repro.errors import ProtocolError
from repro.hw.presets import PE2650
from repro.tcp.analytic import (
    bandwidth_delay_product,
    mss_aligned_window,
    predict_throughput_bps,
    recovery_time_s,
    sender_receiver_mismatch,
    window_efficiency,
)
from repro.units import Gbps, us


class TestBdp:
    def test_lan_bdp_of_the_paper(self):
        """§3.3: 10GbE at 19 us latency -> ~48 KB ideal window."""
        bdp = bandwidth_delay_product(Gbps(10), 2 * us(19))
        assert bdp == pytest.approx(47500, rel=0.01)

    def test_wan_bdp(self):
        bdp = bandwidth_delay_product(Gbps(2.5), 0.180)
        assert bdp == pytest.approx(56.25e6)

    def test_invalid(self):
        with pytest.raises(ProtocolError):
            bandwidth_delay_product(0, 1)
        with pytest.raises(ProtocolError):
            bandwidth_delay_product(1, 0)


class TestRecoveryTime:
    """Table 1, checked against the paper's legible cells."""

    def test_geneva_chicago_1460(self):
        t = recovery_time_s(Gbps(10), 0.120, 1460)
        assert t / 60 == pytest.approx(102.7, rel=0.01)  # 1 hr 42 min

    def test_geneva_sunnyvale_1460(self):
        t = recovery_time_s(Gbps(10), 0.180, 1460)
        assert t / 3600 == pytest.approx(3.85, rel=0.01)  # 3 hr 51 min

    def test_jumbo_mss_recovers_faster(self):
        slow = recovery_time_s(Gbps(10), 0.180, 1460)
        fast = recovery_time_s(Gbps(10), 0.180, 8960)
        assert fast == pytest.approx(slow * 1460 / 8960)

    def test_lan_recovery_is_milliseconds(self):
        assert recovery_time_s(Gbps(10), 0.0002, 1460) < 0.1

    def test_scales_with_rtt_squared(self):
        t1 = recovery_time_s(Gbps(10), 0.090, 1460)
        t2 = recovery_time_s(Gbps(10), 0.180, 1460)
        assert t2 == pytest.approx(4 * t1)

    def test_invalid_mss(self):
        with pytest.raises(ProtocolError):
            recovery_time_s(Gbps(10), 0.1, 0)


class TestFig8:
    def test_26kb_window_9k_mss(self):
        """Fig. 8: a ~26 KB ideal window fits only two ~9 KB segments —
        the 'best possible window' is ~31% below the ideal."""
        ideal = 26 * 1024
        assert mss_aligned_window(ideal, 8960) == 17920
        assert window_efficiency(ideal, 8960) == pytest.approx(0.673,
                                                               rel=0.01)

    def test_efficiency_approaches_one_for_small_mss(self):
        assert window_efficiency(26 * 1024, 1460) > 0.95

    def test_invalid_window(self):
        with pytest.raises(ProtocolError):
            window_efficiency(0, 1460)


class TestMismatchExample:
    def test_paper_worked_example(self):
        """§3.5.1: 33000 bytes, receiver MSS 8948, sender MSS 8960."""
        r = sender_receiver_mismatch()
        assert r.advertised_window == 26844
        assert r.usable_window == 17920
        # "19% less than the available 33,000 bytes"
        assert r.advertised_loss == pytest.approx(0.19, abs=0.005)
        # "nearly 50% smaller than the actual available socket memory"
        assert r.usable_loss == pytest.approx(0.457, abs=0.005)


class TestPredictThroughput:
    def test_orders_tuned_configs_like_the_paper(self):
        def predict(mtu, payload):
            return predict_throughput_bps(
                PE2650, TuningConfig.fully_tuned(mtu), payload)
        t1500 = predict(1500, 1448)
        t9000 = predict(9000, 8948)
        t8160 = predict(8160, 8108)
        assert t1500 < t9000
        assert t9000 < t8160 * 1.05  # 8160 at least on par

    def test_stock_below_tuned(self):
        stock = predict_throughput_bps(PE2650, TuningConfig.stock(9000), 8948)
        tuned = predict_throughput_bps(
            PE2650, TuningConfig.fully_tuned(9000), 8948)
        assert stock < tuned

    def test_invalid_payload(self):
        with pytest.raises(ProtocolError):
            predict_throughput_bps(PE2650, TuningConfig.stock(), 0)

    def test_csa_lifts_the_mmrbc_512_bus_ceiling(self):
        """With the adapter on the memory hub the 512-byte burst limit no
        longer binds, so the prediction follows the host, not the bus."""
        def predict(csa):
            return predict_throughput_bps(
                PE2650, TuningConfig(mtu=9000, mmrbc=512, csa=csa), 8948)
        pcix, csa = predict(False), predict(True)
        assert pcix == pytest.approx(2.78e9, rel=0.01)
        assert csa > pcix * 1.1
