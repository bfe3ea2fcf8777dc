"""Property-based tests for the cost and fluid models."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stackprofile import StackProfiler
from repro.config import TuningConfig, VALID_MMRBC
from repro.hw.calibration import CostModel
from repro.hw.presets import GBE_HOST, INTEL_E7505, ITANIUM2, PE2650, PE4600
from repro.tcp.fluid import FluidParams, simulate_fluid
from repro.units import Gbps

specs = st.sampled_from([PE2650, PE4600, INTEL_E7505, ITANIUM2, GBE_HOST])
payloads = st.integers(min_value=1, max_value=15948)
mtus = st.sampled_from([1500, 4000, 8160, 9000, 16000])


class TestCostModelProperties:
    @given(specs, mtus, payloads)
    @settings(max_examples=60)
    def test_costs_positive_and_monotone_in_payload(self, spec, mtu, p):
        cfg = TuningConfig.fully_tuned(mtu)
        cm = CostModel(spec, cfg)
        p = min(p, mtu - 64)
        if p < 1:
            return
        rx = cm.rx_segment_s(p)
        tx = cm.tx_segment_s(p)
        assert rx > 0 and tx > 0
        assert cm.rx_segment_s(p + 1) >= rx - 1e-12
        assert cm.tx_segment_s(p + 1) >= tx - 1e-12

    @given(mtus, payloads)
    @settings(max_examples=40)
    def test_smp_never_cheaper_than_up(self, mtu, p):
        p = min(p, mtu - 64)
        if p < 1:
            return
        up = CostModel(PE2650, TuningConfig.fully_tuned(mtu))
        smp = CostModel(PE2650, TuningConfig.fully_tuned(mtu).replace(
            smp_kernel=True))
        assert smp.rx_segment_s(p) >= up.rx_segment_s(p)
        assert smp.rx_irq_s() >= up.rx_irq_s()

    @given(st.sampled_from(VALID_MMRBC), st.sampled_from(VALID_MMRBC),
           st.integers(min_value=64, max_value=16018))
    def test_pcix_bigger_bursts_never_slower(self, m1, m2, nbytes):
        from repro.hw.pcix import PciXBus
        from repro.sim import Environment
        bus = PciXBus(Environment(), 133, PE2650.pcix_burst_overhead_s)
        small, large = min(m1, m2), max(m1, m2)
        assert bus.transfer_time(nbytes, large) <= \
            bus.transfer_time(nbytes, small)

    @given(specs)
    def test_capacity_ordering_rx_below_tx(self, spec):
        """The receiver CPU binds before the sender CPU on every host."""
        prof = StackProfiler(spec).profile(TuningConfig.fully_tuned(9000),
                                           8948)
        assert prof.seconds("receiver CPU") >= prof.seconds("sender CPU")


class TestFluidProperties:
    rates = st.floats(min_value=1e8, max_value=1e10)
    rtts = st.floats(min_value=1e-3, max_value=0.5)
    buffers = st.floats(min_value=0.05, max_value=4.0)

    @given(rates, rtts, buffers)
    @settings(max_examples=40, deadline=None)
    def test_throughput_never_exceeds_bottleneck(self, rate, rtt, bufx):
        bdp = rate * rtt / 8.0
        p = FluidParams(bottleneck_bps=rate, base_rtt_s=rtt, mss=8948,
                        max_window_bytes=max(8948.0, bufx * bdp))
        result = simulate_fluid(p, duration_s=rtt * 200)
        assert result.throughput_bps.max() <= rate * 1.001
        assert (result.queue_packets >= 0).all()
        assert (result.window_segments >= 0).all()

    @given(rates, rtts)
    @settings(max_examples=30, deadline=None)
    def test_bdp_window_achieves_capacity(self, rate, rtt):
        bdp = rate * rtt / 8.0
        p = FluidParams(bottleneck_bps=rate, base_rtt_s=rtt, mss=8948,
                        max_window_bytes=max(2 * 8948.0, bdp),
                        queue_packets=10**6)
        result = simulate_fluid(p, duration_s=rtt * 600,
                                warmup_s=rtt * 300)
        floor = min(rate, max(2 * 8948.0, bdp) * 8.0 / rtt)
        assert result.mean_throughput_bps >= floor * 0.8

    @given(buffers)
    @settings(max_examples=20, deadline=None)
    def test_mean_bounded_by_peak(self, bufx):
        bdp = Gbps(2.38) * 0.18 / 8.0
        p = FluidParams(bottleneck_bps=Gbps(2.38), base_rtt_s=0.18,
                        mss=8948, max_window_bytes=max(8948.0, bufx * bdp))
        result = simulate_fluid(p, duration_s=120.0)
        assert result.mean_throughput_bps <= result.throughput_bps.max() + 1e-6
