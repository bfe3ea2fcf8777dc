"""Tests for the per-segment stack profiler."""

import pytest

from repro.config import TuningConfig
from repro.analysis.stackprofile import StackProfiler
from repro.hw.calibration import CostModel
from repro.hw.presets import PE2650


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
    """Each side's CPU stages split the cost model's per-segment budget
    and add nothing to it (OS-bypass allocates no skb on either side)."""
    prof = profiler.profile(config)
    costs = CostModel(PE2650, config)
    sender = (costs.tx_syscall_s() + costs.tx_segment_s(prof.payload)
              + 0.5 * costs.tx_ack_rx_s())
    assert all(s.seconds >= 0 for s in prof.stages)
    assert prof.total_us("sender CPU") * 1e-6 == pytest.approx(sender,
                                                               rel=1e-12)
    assert prof.total_us("receiver CPU") * 1e-6 == pytest.approx(
        costs.rx_per_segment_s(prof.payload), rel=1e-12)


def test_os_bypass_strips_cpu_stages(profiler):
    prof = profiler.profile(TuningConfig.os_bypass_projection(9000))
    assert prof.total_us("receiver CPU") < 1.0
    assert prof.bottleneck() in ("sender bus", "receiver bus")


def test_header_split_moves_bottleneck_to_sender(profiler):
    prof = profiler.profile(TuningConfig.with_header_splitting(8160))
    assert prof.total_us("receiver CPU") < prof.total_us("sender CPU")


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
