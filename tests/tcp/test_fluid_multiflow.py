"""Tests for the fluid model with several flows on one bottleneck."""

import numpy as np
import pytest

from repro.errors import MeasurementError, ProtocolError
from repro.core.wanrecord import WanRecordRun
from repro.tcp.fluid import (STAGGER_S, FluidParams, _pairwise_sum,
                              simulate_fluid)
from repro.units import Gbps


def params(buffer_fraction=1.0, queue=1024):
    bdp = Gbps(2.38) * 0.18 / 8
    return FluidParams(bottleneck_bps=Gbps(2.38), base_rtt_s=0.18,
                       mss=8948, max_window_bytes=bdp * buffer_fraction,
                       queue_packets=queue)


def test_single_flow_special_case_matches_scalar_model():
    # Before the second flow starts, a two-flow run is the one-flow run.
    p = params()
    duration = STAGGER_S - 0.05
    pair = simulate_fluid(p, duration_s=duration, n_flows=2)
    single = simulate_fluid(p, duration_s=duration)
    assert np.array_equal(pair.time_s, single.time_s)
    assert np.array_equal(pair.throughput_bps, single.throughput_bps)
    assert np.array_equal(pair.window_segments[:, 0], single.window_segments)
    assert not pair.window_segments[:, 1].any()
    assert single.window_segments.ndim == 1
    assert single.fairness == 1.0


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 128, 129, 300])
def test_rate_sum_rounds_like_numpy(n):
    # The aggregate rate is summed in NumPy's order, to the float bit.
    rng = np.random.default_rng(n)
    values = (rng.random(n) * 10.0 ** rng.integers(-5, 16, n)).tolist()
    assert _pairwise_sum(values) == float(np.array(values).sum())


def test_multistream_fills_pipe_with_small_buffers():
    """8 flows with 1/8-BDP buffers saturate where one flow starves —
    the pre-large-window workaround for Table 1's recovery times."""
    p = params(buffer_fraction=1 / 8)
    single = simulate_fluid(p, duration_s=300.0, warmup_s=60.0)
    multi = simulate_fluid(p, duration_s=300.0, warmup_s=60.0, n_flows=8)
    assert single.mean_throughput_bps < Gbps(0.4)
    assert multi.mean_throughput_bps == pytest.approx(Gbps(2.38), rel=0.03)


def test_aggregate_never_exceeds_capacity():
    p = params(buffer_fraction=2.0, queue=128)
    multi = simulate_fluid(p, duration_s=120.0, n_flows=4)
    assert multi.throughput_bps.max() <= Gbps(2.38) * 1.001


def test_fairness_high_for_identical_flows():
    p = params(buffer_fraction=1 / 4)
    multi = simulate_fluid(p, duration_s=300.0, warmup_s=100.0, n_flows=4)
    assert multi.fairness > 0.9


def test_losses_hit_largest_flow():
    p = params(buffer_fraction=1.0, queue=64)
    multi = simulate_fluid(p, duration_s=200.0, warmup_s=50.0, n_flows=4)
    assert multi.losses >= 1
    # aggregate stays much closer to capacity than a single lossy flow
    assert multi.mean_throughput_bps > Gbps(1.8)


def test_forced_loss_halves_the_largest_window():
    p = params(buffer_fraction=1 / 4)
    at = 100.0
    multi = simulate_fluid(p, duration_s=120.0, force_loss_at_s=at,
                           n_flows=3)
    i = int(np.searchsorted(multi.time_s, at))
    before, after = multi.window_segments[i], multi.window_segments[i + 1]
    k = int(np.argmax(before))
    assert multi.losses == 1
    assert after[k] == pytest.approx(before[k] / 2.0)
    others = np.arange(3) != k
    assert (after[others] >= before[others]).all()


def test_window_series_shape():
    multi = simulate_fluid(params(), duration_s=30.0, n_flows=3)
    assert multi.window_segments.shape[1] == 3
    assert (multi.window_segments >= 0).all()


def test_validation():
    with pytest.raises(ProtocolError):
        simulate_fluid(params(), duration_s=10.0, n_flows=0)
    with pytest.raises(ProtocolError):
        simulate_fluid(params(), duration_s=0.0, n_flows=2)


def test_wanrecord_multiflow_outcome():
    run = WanRecordRun()
    out = run.run_fluid(n_flows=8, duration_s=300.0, label="8 streams")
    assert out.throughput_gbps == pytest.approx(2.38, rel=0.05)
    assert out.label == "8 streams"
    assert out.buffer_bytes == run.bdp_buffer_bytes() // 8
    with pytest.raises(MeasurementError):
        run.run_fluid(n_flows=0)
