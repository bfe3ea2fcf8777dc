"""Unit tests for the fluid AIMD model."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.tcp.analytic import bandwidth_delay_product
from repro.tcp.fluid import FluidParams, simulate_fluid
from repro.units import Gbps, MB


def wan_params(**overrides):
    base = dict(
        bottleneck_bps=Gbps(2.38),
        base_rtt_s=0.180,
        mss=8948,
        max_window_bytes=bandwidth_delay_product(Gbps(2.38), 0.180),
        queue_packets=1024,
    )
    base.update(overrides)
    return FluidParams(**base)


def test_bdp_arithmetic():
    p = wan_params()
    assert p.max_window_bytes == pytest.approx(53.55e6)
    assert p.max_window_bytes / p.mss == pytest.approx(5984.6, abs=0.1)


def test_bdp_window_saturates_without_loss():
    result = simulate_fluid(wan_params(), duration_s=120.0, warmup_s=30.0)
    assert result.losses == 0
    assert result.mean_throughput_bps == pytest.approx(Gbps(2.38), rel=0.02)


def test_tiny_window_throughput_is_window_over_rtt():
    p = wan_params(max_window_bytes=MB(1))
    result = simulate_fluid(p, duration_s=120.0, warmup_s=30.0)
    expected = MB(1) * 8 / 0.180
    assert result.mean_throughput_bps == pytest.approx(expected, rel=0.05)


def test_oversized_window_provokes_losses():
    p = wan_params(max_window_bytes=3 * wan_params().max_window_bytes,
                   queue_packets=256)
    result = simulate_fluid(p, duration_s=300.0, warmup_s=30.0)
    assert result.losses >= 1
    assert result.mean_throughput_bps < Gbps(2.38)


def test_forced_loss_halves_window():
    p = wan_params()
    result = simulate_fluid(p, duration_s=120.0, force_loss_at_s=60.0)
    assert result.losses == 1
    # window right after the loss is about half the pre-loss window
    idx = int(np.searchsorted(result.time_s, 60.0))
    before = result.window_segments[idx - 1]
    after = result.window_segments[min(idx + 1, len(result.window_segments) - 1)]
    assert after == pytest.approx(before / 2.0, rel=0.1)


def test_recovery_rate_one_segment_per_rtt():
    """After the forced loss, the window grows ~1 segment per RTT —
    the Table 1 recovery model, now measured rather than assumed."""
    p = wan_params()
    result = simulate_fluid(p, duration_s=200.0, force_loss_at_s=100.0)
    t, w = result.time_s, result.window_segments
    lo = int(np.searchsorted(t, 110.0))
    hi = int(np.searchsorted(t, 150.0))
    # linear fit of window growth in avoidance
    slope = np.polyfit(t[lo:hi], w[lo:hi], 1)[0]  # segments per second
    assert slope == pytest.approx(1.0 / 0.180, rel=0.15)


def test_table1_recovery_rate_on_a_120ms_path():
    """Table 1's +1 segment per RTT, measured after a forced loss on a
    scaled-down Geneva-Chicago-like path (2.4 Gb/s, 120 ms)."""
    rtt = 0.120
    p = FluidParams(bottleneck_bps=Gbps(2.4), base_rtt_s=rtt, mss=8948,
                    max_window_bytes=Gbps(2.4) * rtt / 8)
    result = simulate_fluid(p, duration_s=120.0, force_loss_at_s=60.0)
    assert result.losses == 1
    t, w = result.time_s, result.window_segments
    lo, hi = np.searchsorted(t, 70.0), np.searchsorted(t, 100.0)
    slope = np.polyfit(t[lo:hi], w[lo:hi], 1)[0]
    assert slope == pytest.approx(1.0 / rtt, rel=0.15)


def test_slow_start_ramp_visible():
    result = simulate_fluid(wan_params(), duration_s=30.0)
    w = result.window_segments
    assert w[0] < 10
    assert w[-1] > 100


def test_bytes_transferred_consistent():
    result = simulate_fluid(wan_params(), duration_s=60.0)
    total = result.bytes_transferred()
    approx = result.mean_throughput_bps * 60.0 / 8.0
    assert total == pytest.approx(approx, rel=0.3)


def test_invalid_params():
    with pytest.raises(ProtocolError):
        wan_params(bottleneck_bps=0)
    with pytest.raises(ProtocolError):
        wan_params(mss=0)
    with pytest.raises(ProtocolError):
        wan_params(queue_packets=0)
    with pytest.raises(ProtocolError):
        simulate_fluid(wan_params(), duration_s=0)
