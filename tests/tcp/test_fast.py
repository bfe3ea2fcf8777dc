"""Tests for the FAST TCP window law of the fluid model."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.tcp.analytic import bandwidth_delay_product
from repro.tcp.fluid import FastParams, FluidParams, simulate_fluid
from repro.units import Gbps

FAST = FastParams()


def wan(queue=400, buffer_x_bdp=4.0):
    bdp = bandwidth_delay_product(Gbps(2.38), 0.18)
    return FluidParams(bottleneck_bps=Gbps(2.38), base_rtt_s=0.18,
                       mss=8948, max_window_bytes=buffer_x_bdp * bdp,
                       queue_packets=queue)


def test_params_validation():
    with pytest.raises(ProtocolError):
        FastParams(alpha_packets=0)
    with pytest.raises(ProtocolError):
        FastParams(gamma=0)
    with pytest.raises(ProtocolError):
        FastParams(gamma=1.5)
    with pytest.raises(ProtocolError):
        simulate_fluid(wan(), duration_s=0, fast=FAST)


def test_fast_converges_lossfree_where_reno_oscillates():
    """The motivation for FAST: on a long fat pipe with an uncapped
    window, Reno fills the queue, loses, and sawtooths; FAST sits at
    alpha queued packets and full rate."""
    p = wan()
    reno = simulate_fluid(p, 900.0, warmup_s=120.0)
    fast = simulate_fluid(p, 900.0, warmup_s=120.0, fast=FAST)
    assert reno.losses >= 1
    assert fast.losses == 0
    assert fast.mean_throughput_bps == pytest.approx(Gbps(2.38), rel=0.01)
    assert fast.mean_throughput_bps > reno.mean_throughput_bps


def test_fast_steady_queue_near_alpha():
    fp = FastParams(alpha_packets=150.0)
    result = simulate_fluid(wan(queue=1000), 600.0, fast=fp,
                            warmup_s=200.0)
    steady = result.queue_packets[-50:]
    assert np.mean(steady) == pytest.approx(150.0, rel=0.15)


def test_fast_recovers_from_loss_in_seconds_not_hours():
    """Table 1 gives Reno ~38-45 min at this BDP; FAST re-converges in
    a handful of RTTs."""
    p = wan()
    result = simulate_fluid(p, 420.0, warmup_s=60.0,
                            force_loss_at_s=300.0, fast=FAST)
    assert result.losses == 1
    t, thr = result.time_s, result.throughput_bps
    i0 = int(np.searchsorted(t, 300.0))
    target = 0.95 * thr[max(0, i0 - 4)]
    recovered_at = None
    for j in range(i0 + 1, len(t)):
        if thr[j] >= target:
            recovered_at = t[j] - 300.0
            break
    assert recovered_at is not None
    assert recovered_at < 30.0


def test_fast_respects_window_cap():
    p = wan(buffer_x_bdp=0.25)
    result = simulate_fluid(p, 300.0, warmup_s=60.0, fast=FAST)
    cap_segments = p.max_window_bytes / p.mss
    assert result.window_segments.max() <= cap_segments * 1.001
    assert result.mean_throughput_bps < Gbps(0.7)


def test_alpha_scales_throughput_share_intuition():
    """Bigger alpha -> bigger standing queue (single flow: same rate)."""
    small = simulate_fluid(wan(queue=2000), 400.0,
                           fast=FastParams(alpha_packets=50),
                           warmup_s=150.0)
    large = simulate_fluid(wan(queue=2000), 400.0,
                           fast=FastParams(alpha_packets=400),
                           warmup_s=150.0)
    assert large.queue_packets[-10:].mean() > small.queue_packets[-10:].mean()
