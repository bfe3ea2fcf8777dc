"""Tests for the §3.5.3/§5 offload extensions: header splitting,
OS-bypass and CSA."""

import pytest

from repro.config import TuningConfig
from repro.errors import ConfigError
from repro.hw.calibration import CostModel
from repro.hw.csa import MchLink
from repro.hw.presets import PE2650
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.netpipe import netpipe_latency
from repro.tools.nttcp import nttcp_run


def measure(cfg, payload, count=384):
    env = Environment()
    bb = BackToBack.create(env, cfg)
    conn = TcpConnection(env, bb.a, bb.b)
    return nttcp_run(env, conn, payload, count)


class TestConfig:
    def test_bypass_plus_splitting_rejected(self):
        with pytest.raises(ConfigError):
            TuningConfig(os_bypass=True, header_splitting=True)

    def test_named_constructors(self):
        hs = TuningConfig.with_header_splitting()
        assert hs.header_splitting and hs.mtu == 8160
        ob = TuningConfig.os_bypass_projection()
        assert ob.os_bypass and ob.interrupt_coalescing_us == 0.0


class TestCostModel:
    def test_os_bypass_costs_near_zero(self):
        cm = CostModel(PE2650, TuningConfig.os_bypass_projection(9000))
        base = CostModel(PE2650, TuningConfig.fully_tuned(9000))
        assert cm.rx_irq_s() == 0.0
        assert cm.rx_wake_s() == 0.0
        assert cm.tx_syscall_s() == 0.0
        assert cm.rx_segment_s(8948) < base.rx_segment_s(8948) / 5

    def test_header_splitting_cuts_rx_byte_cost(self):
        hs = CostModel(PE2650, TuningConfig.with_header_splitting(8160))
        base = CostModel(PE2650, TuningConfig.fully_tuned(8160))
        assert hs.rx_segment_s(8108) < base.rx_segment_s(8108)
        # tx side unchanged: the engine only helps receive
        assert hs.tx_segment_s(8108) == pytest.approx(
            base.tx_segment_s(8108))

    def test_rx_truesize_reduced_under_offloads(self):
        from repro.oskernel.skbuff import SkBuff
        skb = SkBuff(payload=8948, headers=64)
        base = CostModel(PE2650, TuningConfig.fully_tuned(9000))
        hs = CostModel(PE2650, TuningConfig.with_header_splitting(9000))
        assert base.rx_truesize(skb) == 16384
        assert hs.rx_truesize(skb) == 256


class TestMchLink:
    def test_no_burst_sensitivity(self):
        env = Environment()
        link = MchLink(env)
        assert link.transfer_time(9018, 512) == link.transfer_time(9018, 4096)

    def test_faster_than_pcix(self):
        from repro.hw.pcix import PciXBus
        env = Environment()
        mch = MchLink(env)
        pcix = PciXBus(env, 133, PE2650.pcix_burst_overhead_s)
        assert mch.transfer_time(9018) < pcix.transfer_time(9018, 4096)

    def test_validation(self):
        env = Environment()
        with pytest.raises(ConfigError):
            MchLink(env, link_bps=0)
        with pytest.raises(ConfigError):
            MchLink(env).transfer_time(0)

    def test_dma_serializes(self):
        env = Environment()
        link = MchLink(env)
        done = []

        def xfer():
            yield from link.dma(8192, 512)  # MMRBC is ignored on the hub
            done.append(env.now)

        env.process(xfer())
        env.process(xfer())
        env.run()
        assert done[1] == pytest.approx(2 * link.transfer_time(8192))


class TestEndToEnd:
    def test_header_splitting_beats_tuned_tcp(self):
        tcp = measure(TuningConfig.fully_tuned(8160), 8108)
        hs = measure(TuningConfig.with_header_splitting(8160), 8108)
        assert hs.goodput_bps > tcp.goodput_bps * 1.15
        assert hs.receiver_load < tcp.receiver_load * 0.8

    def test_os_bypass_near_zero_load(self):
        ob = measure(TuningConfig.os_bypass_projection(9000), 8948)
        assert ob.receiver_load < 0.1
        assert ob.goodput_gbps > 4.5

    def test_os_bypass_latency_below_10us(self):
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.os_bypass_projection(1500))
        fwd = TcpConnection(env, bb.a, bb.b)
        bwd = TcpConnection(env, bb.b, bb.a)
        lat = netpipe_latency(env, fwd, bwd, payload=1, iterations=4)
        assert lat.latency_us < 10.0

    def test_csa_removes_mmrbc_sensitivity(self):
        """With the adapter on the MCH, the MMRBC register is moot."""
        small = measure(TuningConfig.os_bypass_projection(9000).replace(
            csa=True, mmrbc=512), 8948)
        large = measure(TuningConfig.os_bypass_projection(9000).replace(
            csa=True, mmrbc=4096), 8948)
        assert small.goodput_bps == pytest.approx(large.goodput_bps,
                                                  rel=0.02)

    def test_projections_against_tuned_tcp(self):
        """§3.5.3/§5: each offload against tuned TCP at 8160 MTU."""
        tcp = measure(TuningConfig.fully_tuned(8160), 8108, count=768)
        hs = measure(TuningConfig.with_header_splitting(8160), 8108,
                     count=768)
        bypass = measure(TuningConfig.os_bypass_projection(9000), 8948,
                         count=1536)
        csa = measure(TuningConfig.os_bypass_projection(9000).replace(
            csa=True), 8948, count=1536)
        assert hs.goodput_bps > tcp.goodput_bps * 1.2
        assert hs.receiver_load < tcp.receiver_load
        assert bypass.receiver_load < 0.1   # CPU load approaching zero
        assert bypass.goodput_bps > tcp.goodput_bps
        # with the I/O bus bypassed too, throughput approaches the wire
        assert csa.goodput_gbps > 8.0

    def test_csa_plus_bypass_approaches_wire_speed(self):
        out = measure(TuningConfig.os_bypass_projection(9000).replace(
            csa=True), 8948, count=768)
        assert out.goodput_gbps > 8.0
