"""Tests for the NetPipe ping-pong latency tool."""

import pytest

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.netpipe import netpipe_latency


def make_pair(coalescing_us=5.0):
    env = Environment()
    cfg = TuningConfig(mtu=1500, mmrbc=4096, smp_kernel=False,
                       interrupt_coalescing_us=coalescing_us)
    bb = BackToBack.create(env, cfg)
    return env, TcpConnection(env, bb.a, bb.b), TcpConnection(env, bb.b, bb.a)


def test_single_byte_latency_near_paper():
    env, fwd, bwd = make_pair()
    r = netpipe_latency(env, fwd, bwd, payload=1, iterations=5)
    assert r.latency_us == pytest.approx(19.0, abs=1.5)


def test_latency_grows_with_payload():
    env, fwd, bwd = make_pair()
    small = netpipe_latency(env, fwd, bwd, payload=1, iterations=4)
    env2, fwd2, bwd2 = make_pair()
    large = netpipe_latency(env2, fwd2, bwd2, payload=1024, iterations=4)
    assert large.latency_s > small.latency_s


def test_coalescing_off_saves_five_microseconds():
    env, fwd, bwd = make_pair(5.0)
    on = netpipe_latency(env, fwd, bwd, payload=1, iterations=4)
    env2, fwd2, bwd2 = make_pair(0.0)
    off = netpipe_latency(env2, fwd2, bwd2, payload=1, iterations=4)
    assert on.latency_us - off.latency_us == pytest.approx(5.0, abs=1.0)


def test_rtt_is_twice_latency():
    env, fwd, bwd = make_pair()
    r = netpipe_latency(env, fwd, bwd, payload=1, iterations=4)
    assert r.rtt_s == pytest.approx(2 * r.latency_s)


def test_invalid_args():
    env, fwd, bwd = make_pair()
    with pytest.raises(MeasurementError):
        netpipe_latency(env, fwd, bwd, payload=0)
    with pytest.raises(MeasurementError):
        netpipe_latency(env, fwd, bwd, payload=1, iterations=0)

