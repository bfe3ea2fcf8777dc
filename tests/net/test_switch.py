"""Unit tests for the store-and-forward switch."""

import pytest

from repro.errors import TopologyError
from repro.net.ethernet import EthernetLink
from repro.net.switch import FASTIRON_1500, Switch, SwitchModel
from repro.oskernel.skbuff import SkBuff
from repro.sim import Environment
from repro.units import Gbps, us


class Collector:
    def __init__(self, env):
        self.env = env
        self.frames = []
        self.times = []

    def receive_frame(self, skb):
        self.frames.append(skb)
        self.times.append(self.env.now)


def build(env, model=FASTIRON_1500):
    switch = Switch(env, model=model)
    sink_a = Collector(env)
    sink_b = Collector(env)
    down_a = EthernetLink(env, Gbps(10), 0.0, 9000, name="sw2a")
    down_b = EthernetLink(env, Gbps(10), 0.0, 9000, name="sw2b")
    down_a.connect(sink_a)
    down_b.connect(sink_b)
    switch.add_port("pA", down_a)
    switch.add_port("pB", down_b)
    switch.learn("A", "pA")
    switch.learn("B", "pB")
    return switch, sink_a, sink_b


def test_forwards_by_destination():
    env = Environment()
    switch, sink_a, sink_b = build(env)
    switch.receive_frame(SkBuff(payload=100, headers=52, meta={"dst": "B"}))
    switch.receive_frame(SkBuff(payload=100, headers=52, meta={"dst": "A"}))
    env.run()
    assert len(sink_a.frames) == 1
    assert len(sink_b.frames) == 1


def test_forwarding_latency_applied():
    env = Environment()
    switch, _, sink_b = build(env)
    skb = SkBuff(payload=1, headers=52, meta={"dst": "B"})
    switch.receive_frame(skb)
    env.run()
    assert sink_b.times[0] >= FASTIRON_1500.forwarding_latency_s


def test_unknown_destination_raises():
    env = Environment()
    switch, _, _ = build(env)
    with pytest.raises(TopologyError):
        switch.receive_frame(SkBuff(payload=1, headers=52, meta={"dst": "Z"}))


def test_missing_dst_raises():
    env = Environment()
    switch, _, _ = build(env)
    with pytest.raises(Exception):
        switch.receive_frame(SkBuff(payload=1, headers=52))


def test_duplicate_port_rejected():
    env = Environment()
    switch, _, _ = build(env)
    with pytest.raises(TopologyError):
        switch.add_port("pA", EthernetLink(env, Gbps(10)))


def test_learn_unknown_port_rejected():
    env = Environment()
    switch, _, _ = build(env)
    with pytest.raises(TopologyError):
        switch.learn("C", "nope")


def test_output_queue_drop_tail():
    env = Environment()
    model = SwitchModel(name="tiny", forwarding_latency_s=us(100),
                        backplane_bps=Gbps(480), port_queue_frames=2)
    switch, _, sink_b = build(env, model)
    for _ in range(10):
        switch.receive_frame(SkBuff(payload=8948, headers=52,
                                    meta={"dst": "B"}))
    env.run()
    drops = int(switch.port("pB").drops.total)
    assert drops > 0
    assert len(sink_b.frames) + drops == 10


def test_aggregation_serializes_on_one_port():
    """Frames from many sources to one port leave back-to-back at the
    egress line rate — the multi-flow aggregation behaviour."""
    env = Environment()
    switch, _, sink_b = build(env)
    for _ in range(5):
        switch.receive_frame(SkBuff(payload=8948, headers=52,
                                    meta={"dst": "B"}))
    env.run()
    gaps = [t2 - t1 for t1, t2 in zip(sink_b.times, sink_b.times[1:])]
    wire = SkBuff(payload=8948, headers=52).wire_bytes * 8 / 1e10
    for gap in gaps:
        assert gap >= wire * 0.99


def test_invalid_model_rejected():
    with pytest.raises(TopologyError):
        SwitchModel(name="bad", forwarding_latency_s=-1,
                    backplane_bps=Gbps(1), port_queue_frames=8)
    with pytest.raises(TopologyError):
        SwitchModel(name="bad", forwarding_latency_s=0,
                    backplane_bps=0, port_queue_frames=8)
    with pytest.raises(TopologyError):
        SwitchModel(name="bad", forwarding_latency_s=0,
                    backplane_bps=Gbps(1), port_queue_frames=0)
