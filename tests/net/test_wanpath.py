"""Unit tests for POS circuits, routers and the WAN path."""

import pytest

from repro.errors import LinkError, TopologyError
from repro.net.wanpath import (
    OC192_BPS,
    OC48_BPS,
    POS_OVERHEAD,
    PosCircuit,
    Router,
    SONET_PAYLOAD_FRACTION,
    WanPath,
)
from repro.oskernel.skbuff import SkBuff
from repro.sim import Environment


class Collector:
    def __init__(self, env):
        self.env = env
        self.frames = []
        self.times = []

    def receive_frame(self, skb):
        self.frames.append(skb)
        self.times.append(self.env.now)


def test_sonet_overhead_reduces_payload_rate():
    env = Environment()
    oc48 = PosCircuit(env, OC48_BPS, 0.0)
    assert oc48.payload_bps == pytest.approx(OC48_BPS * SONET_PAYLOAD_FRACTION)
    assert oc48.payload_bps / 1e9 == pytest.approx(2.396, rel=0.01)


def test_serialization_includes_ppp_overhead():
    env = Environment()
    oc48 = PosCircuit(env, OC48_BPS, 0.0)
    skb = SkBuff(payload=8948, headers=52)
    expected = (8948 + 52 + POS_OVERHEAD) * 8 / oc48.payload_bps
    assert oc48.serialization_time(skb) == pytest.approx(expected)


def test_propagation_dominates_long_circuits():
    env = Environment()
    circuit = PosCircuit(env, OC192_BPS, 13000.0)
    sink = Collector(env)
    circuit.connect(sink)
    circuit.transmit(SkBuff(payload=100, headers=52))
    env.run()
    assert sink.times[0] == pytest.approx(13000e3 / 2e8, rel=0.01)


def test_unconnected_transmit_rejected():
    env = Environment()
    circuit = PosCircuit(env, OC48_BPS, 10.0)
    with pytest.raises(LinkError):
        circuit.transmit(SkBuff(payload=1, headers=52))


def test_router_droptail():
    env = Environment()
    oc48 = PosCircuit(env, OC48_BPS, 0.0)
    oc48.connect(Collector(env))
    router = Router(env, oc48, queue_frames=4, forwarding_latency_s=0.0)
    for _ in range(20):
        router.receive_frame(SkBuff(payload=8948, headers=52))
    env.run()
    assert router.drops.total > 0
    assert router.forwarded.total + router.drops.total == 20


def test_router_invalid_queue():
    env = Environment()
    with pytest.raises(TopologyError):
        Router(env, egress=None, queue_frames=0)


def test_wanpath_end_to_end():
    env = Environment()
    path = WanPath(env)
    sink = Collector(env)
    path.connect(sink)
    path.head.receive_frame(SkBuff(payload=8948, headers=52))
    env.run()
    assert len(sink.frames) == 1
    # 18000 km at 2e8 m/s = 90 ms one way
    assert sink.times[0] == pytest.approx(0.090, rel=0.02)
    assert path.oc192.propagation_s + path.oc48.propagation_s == \
        pytest.approx(0.090, rel=0.01)


def test_wanpath_bottleneck_is_oc48():
    env = Environment()
    path = WanPath(env)
    assert path.oc48.payload_bps < path.oc192.payload_bps
    assert path.oc48.payload_bps == pytest.approx(
        OC48_BPS * SONET_PAYLOAD_FRACTION)


def test_wanpath_congestion_drops_counted():
    env = Environment()
    path = WanPath(env, bottleneck_queue_frames=2)
    path.connect(Collector(env))
    for _ in range(50):
        path.head.receive_frame(SkBuff(payload=8948, headers=52))
    env.run()
    assert path.drops > 0
