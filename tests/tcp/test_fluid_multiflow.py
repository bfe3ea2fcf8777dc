"""Tests for the multi-flow fluid model."""

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.core.wanrecord import WanRecordRun
from repro.tcp.fluid import FluidParams, simulate_fluid, simulate_fluid_multiflow
from repro.units import Gbps


def params(buffer_fraction=1.0, queue=1024):
    bdp = Gbps(2.38) * 0.18 / 8
    return FluidParams(bottleneck_bps=Gbps(2.38), base_rtt_s=0.18,
                       mss=8948, max_window_bytes=bdp * buffer_fraction,
                       queue_packets=queue)


def test_single_flow_special_case_matches_scalar_model():
    p = params()
    multi = simulate_fluid_multiflow(p, n_flows=1, duration_s=200.0,
                                     warmup_s=60.0, stagger_s=0.0)
    single = simulate_fluid(p, duration_s=200.0, warmup_s=60.0)
    assert multi.mean_aggregate_bps == pytest.approx(
        single.mean_throughput_bps, rel=0.05)


def test_multistream_fills_pipe_with_small_buffers():
    """8 flows with 1/8-BDP buffers saturate where one flow starves —
    the pre-large-window workaround for Table 1's recovery times."""
    p = params(buffer_fraction=1 / 8)
    single = simulate_fluid(p, duration_s=300.0, warmup_s=60.0)
    multi = simulate_fluid_multiflow(p, n_flows=8, duration_s=300.0,
                                     warmup_s=60.0)
    assert single.mean_throughput_bps < Gbps(0.4)
    assert multi.mean_aggregate_bps == pytest.approx(Gbps(2.38), rel=0.03)


def test_aggregate_never_exceeds_capacity():
    p = params(buffer_fraction=2.0, queue=128)
    multi = simulate_fluid_multiflow(p, n_flows=4, duration_s=120.0)
    assert multi.aggregate_throughput_bps.max() <= Gbps(2.38) * 1.001


def test_fairness_high_for_identical_flows():
    p = params(buffer_fraction=1 / 4)
    multi = simulate_fluid_multiflow(p, n_flows=4, duration_s=300.0,
                                     warmup_s=100.0)
    assert multi.fairness > 0.9


def test_losses_hit_largest_flow():
    p = params(buffer_fraction=1.0, queue=64)
    multi = simulate_fluid_multiflow(p, n_flows=4, duration_s=200.0,
                                     warmup_s=50.0)
    assert multi.losses >= 1
    # aggregate stays much closer to capacity than a single lossy flow
    assert multi.mean_aggregate_bps > Gbps(1.8)


def test_window_series_shape():
    multi = simulate_fluid_multiflow(params(), n_flows=3, duration_s=30.0)
    assert multi.windows_segments.shape[1] == 3
    assert (multi.windows_segments >= 0).all()


def test_validation():
    with pytest.raises(ProtocolError):
        simulate_fluid_multiflow(params(), n_flows=0, duration_s=10.0)
    with pytest.raises(ProtocolError):
        simulate_fluid_multiflow(params(), n_flows=2, duration_s=0.0)


def test_wanrecord_multiflow_outcome():
    run = WanRecordRun()
    out = run.run_fluid_multiflow(n_flows=8, duration_s=300.0)
    assert out.throughput_gbps == pytest.approx(2.38, rel=0.05)
    assert out.label == "8 streams"
    with pytest.raises(Exception):
        run.run_fluid_multiflow(n_flows=0)
