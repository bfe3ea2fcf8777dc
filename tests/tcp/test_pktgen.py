"""Tests for the packet generator."""

import pytest

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.pktgen import pktgen_run


def make_bb(cfg=None):
    env = Environment()
    bb = BackToBack.create(env, cfg or TuningConfig.with_pcix_burst(9000))
    bb.b.set_default_handler(lambda skb: None)
    return env, bb


class TestPktgen:
    def test_paper_rate(self):
        """§3.5.2: 5.5 Gb/s with 8160-byte packets (~84k pps)."""
        env, bb = make_bb()
        r = pktgen_run(env, bb.a, "hostB.eth0", packet_bytes=8160,
                       packets=1024)
        assert r.rate_gbps == pytest.approx(5.5, rel=0.05)
        assert r.packets_per_sec == pytest.approx(84000, rel=0.06)

    def test_rate_survives_cpu_load(self):
        """'This rate is maintained when additional load is placed on
        the CPU, indicating that the CPU is not a bottleneck.'"""
        env, bb = make_bb()
        base = pktgen_run(env, bb.a, "hostB.eth0", packets=512)
        env2, bb2 = make_bb()
        loaded = pktgen_run(env2, bb2.a, "hostB.eth0", packets=512,
                            extra_cpu_load=0.8)
        assert loaded.rate_bps > base.rate_bps * 0.9

    def test_small_packets_cost_more_per_byte(self):
        env, bb = make_bb(TuningConfig.with_pcix_burst(1500))
        small = pktgen_run(env, bb.a, "hostB.eth0", packet_bytes=1500,
                           packets=512)
        env2, bb2 = make_bb()
        big = pktgen_run(env2, bb2.a, "hostB.eth0", packet_bytes=8160,
                         packets=512)
        assert big.rate_bps > small.rate_bps

    def test_stock_burst_size_caps_pktgen(self):
        """MMRBC 512 drags the generator down too — it is pure DMA."""
        env, bb = make_bb(TuningConfig.stock(9000))
        stock = pktgen_run(env, bb.a, "hostB.eth0", packets=512)
        env2, bb2 = make_bb()
        tuned = pktgen_run(env2, bb2.a, "hostB.eth0", packets=512)
        assert stock.rate_bps < tuned.rate_bps

    def test_validation(self):
        env, bb = make_bb()
        with pytest.raises(MeasurementError):
            pktgen_run(env, bb.a, "hostB.eth0", packet_bytes=20)
        with pytest.raises(MeasurementError):
            pktgen_run(env, bb.a, "hostB.eth0", packets=0)
        with pytest.raises(MeasurementError):
            pktgen_run(env, bb.a, "hostB.eth0", extra_cpu_load=1.5)

