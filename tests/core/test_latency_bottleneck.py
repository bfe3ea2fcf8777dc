"""Tests for the latency study and the bottleneck decomposition."""

import pytest

from repro.core.bottleneck import BottleneckStudy
from repro.core.latencyreport import LatencyStudy


@pytest.fixture(scope="module")
def latency():
    return LatencyStudy(iterations=4)


class TestLatencyStudy:
    def test_back_to_back_base_near_19us(self, latency):
        curve = latency.measure(5.0, False, payloads=(1,))
        assert curve.base_latency_us == pytest.approx(19.0, abs=1.5)

    def test_switch_adds_about_6us(self, latency):
        b2b = latency.measure(5.0, False, payloads=(1,))
        sw = latency.measure(5.0, True, payloads=(1,))
        extra = sw.base_latency_us - b2b.base_latency_us
        assert extra == pytest.approx(6.0, abs=1.5)

    def test_coalescing_off_reaches_14us(self, latency):
        off = latency.measure(0.0, False, payloads=(1,))
        assert off.base_latency_us == pytest.approx(14.0, abs=1.5)

    def test_latency_grows_with_payload(self, latency):
        curve = latency.measure(5.0, False, payloads=(1, 512, 1024))
        lat = curve.latencies_us
        assert lat[0] < lat[1] < lat[2]
        # paper: ~20% growth over the range; allow 10-45%
        assert 0.10 < curve.growth_fraction < 0.45


class TestBottleneckStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return BottleneckStudy(n_clients=4, duration_s=0.008)

    def test_rx_tx_statistically_equal(self, study):
        rx = study.receive_path()
        tx = study.transmit_path()
        assert abs(rx.aggregate_bps - tx.aggregate_bps) \
            / max(rx.aggregate_bps, tx.aggregate_bps) < 0.15

    def test_dual_adapter_no_better(self, study):
        one = study.receive_path()
        two = study.dual_adapters()
        assert two.aggregate_bps < one.aggregate_bps * 1.10

    def test_pktgen_vs_tcp_ratio(self, study):
        pkt = study.pktgen_ceiling(packets=512)
        tcp = study.single_flow(payload=8108)
        ratio = tcp / pkt.rate_bps
        # paper: TCP is about 75% of the single-copy generator
        assert 0.6 < ratio < 0.9

    def test_memory_bandwidth_ruled_out(self, study):
        stream = study.stream_comparison()
        assert stream["PE4600"].copy_bps > stream["PE2650"].copy_bps * 1.4
