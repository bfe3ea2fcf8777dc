"""Tests for the per-segment stack profiler."""

import pytest

from repro.config import TuningConfig
from repro.analysis.stackprofile import StackProfiler
from repro.hw.calibration import DEFAULT_CALIBRATION, CostModel
from repro.hw.presets import PE2650
from repro.tcp.mss import mss_for_mtu
from repro.units import Gbps


@pytest.fixture(scope="module")
def profiler():
    return StackProfiler()


def test_stage_costs_are_positive_and_complete(profiler):
    prof = profiler.profile(TuningConfig.fully_tuned(9000))
    assert len(prof.stages) == 14
    assert all(s.seconds >= 0 for s in prof.stages)
    names = {s.stage for s in prof.stages}
    assert "wire serialization" in names
    assert "data movement (FSB + copy)" in names


def test_receiver_cpu_is_the_tuned_bottleneck(profiler):
    prof = profiler.profile(TuningConfig.fully_tuned(8160))
    assert prof.bottleneck() == "receiver CPU"
    # data movement is the single biggest stage — §3.5.2's conclusion
    biggest = max(prof.stages, key=lambda s: s.seconds)
    assert biggest.stage == "data movement (FSB + copy)"


def test_stock_9000_bottleneck_is_the_bus(profiler):
    prof = profiler.profile(TuningConfig.stock(9000))
    assert prof.bottleneck() in ("sender bus", "receiver bus")


def test_implied_goodput_tracks_measured_peaks(profiler):
    """The profile's implied rate should land near the DES results."""
    cases = [
        (TuningConfig.fully_tuned(8160), 4.1),
        (TuningConfig.fully_tuned(9000), 3.9),
        (TuningConfig.stock(9000), 2.8),
    ]
    for cfg, expect in cases:
        implied = profiler.profile(cfg).predicted_goodput_bps() / 1e9
        assert implied == pytest.approx(expect, rel=0.10)


@pytest.mark.parametrize("config", [
    TuningConfig.stock(1500),
    TuningConfig.stock(9000),
    TuningConfig.fully_tuned(9000),
    TuningConfig.fully_tuned(8160),
    TuningConfig.with_header_splitting(8160),
    TuningConfig.os_bypass_projection(9000),
], ids=["stock-1500", "stock-9000", "tuned-9000", "tuned-8160",
        "header-split", "os-bypass"])
def test_cpu_stages_sum_to_the_cost_model(profiler, config):
    """Each location's stages split the cost model's budgets over the
    write's segments and add nothing to them (OS-bypass allocates no
    skb on either side); the write() syscall is charged once.  Checked
    for a one-MSS write and a four-segment one."""
    costs = CostModel(PE2650, config)
    mss = mss_for_mtu(config.mtu, config.tcp_timestamps)
    for sizes in ([mss], [mss] * 3 + [100]):
        prof = profiler.profile(config, sum(sizes))
        frames = [costs.frame_bytes(size) for size in sizes]
        bus = sum(costs.dma_hold_s(f) for f in frames)
        budgets = {
            "sender CPU": costs.tx_syscall_s() + sum(
                costs.tx_segment_s(size) + 0.5 * costs.tx_ack_rx_s()
                for size in sizes),
            "sender bus": bus,
            "wire": sum(costs.wire_time_s(f, Gbps(10)) for f in frames),
            "receiver bus": bus,
            "receiver CPU": sum(
                costs.rx_irq_s() + costs.rx_segment_s(size)
                + 0.5 * costs.rx_ack_gen_s() + costs.rx_wake_s()
                for size in sizes),
        }
        assert len(prof.stages) == 14
        assert all(s.seconds >= 0 for s in prof.stages)
        for where, budget in budgets.items():
            split = sum(s.seconds for s in prof.stages if s.where == where)
            assert split == pytest.approx(budget, rel=1e-12), where
            assert prof.seconds(where) == budget, where


def test_os_bypass_strips_cpu_stages(profiler):
    prof = profiler.profile(TuningConfig.os_bypass_projection(9000))
    assert prof.seconds("receiver CPU") < 1e-6
    assert prof.bottleneck() in ("sender bus", "receiver bus")


def test_os_bypass_moves_bytes_without_the_smp_tax(profiler):
    """Direct data placement charges its bytes untaxed in the cost
    model, so an SMP kernel's tax lands on the protocol stages only."""
    config = TuningConfig.os_bypass_projection(9000).replace(smp_kernel=True)
    prof = profiler.profile(config)
    stage = {s.stage: s.seconds for s in prof.stages}
    moved = prof.payload * DEFAULT_CALIBRATION.os_bypass_byte_s
    assert CostModel(PE2650, config).kernel.per_packet_tax > 1.0
    assert stage["user->kernel copy"] == pytest.approx(moved, rel=1e-12)
    assert stage["data movement (FSB + copy)"] == pytest.approx(
        moved, rel=1e-12)


def test_header_split_moves_bottleneck_to_sender(profiler):
    prof = profiler.profile(TuningConfig.with_header_splitting(8160))
    assert prof.seconds("receiver CPU") < prof.seconds("sender CPU")


def test_rows_sorted_and_share_sums(profiler):
    prof = profiler.profile(TuningConfig.fully_tuned(9000))
    rows = prof.rows()
    costs = [r["us/segment"] for r in rows]
    assert costs == sorted(costs, reverse=True)


def test_compare_emits_row_per_config(profiler):
    rows = profiler.compare({
        "a": TuningConfig.stock(1500),
        "b": TuningConfig.fully_tuned(9000),
    })
    assert [r["config"] for r in rows] == ["a", "b"]
    assert all(r["implied Gb/s"] > 0 for r in rows)
