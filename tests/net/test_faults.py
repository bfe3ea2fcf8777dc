"""Unit tests for the fault-injection taps (now part of repro.chaos)."""

import pytest

from repro.chaos import DuplicateTap, LossTap, ReorderTap
from repro.errors import TopologyError
from repro.net.ethernet import EthernetLink
from repro.oskernel.skbuff import SkBuff
from repro.sim import Environment
from repro.units import Gbps


class Collector:
    def __init__(self, env):
        self.env = env
        self.frames = []

    def receive_frame(self, skb):
        self.frames.append((skb.ident, skb.seq, self.env.now))


def make_link(env):
    link = EthernetLink(env, Gbps(10), 0.0, 9000)
    sink = Collector(env)
    link.connect(sink)
    return link, sink


def send(env, link, n, kind="data"):
    frames = []
    for i in range(n):
        skb = SkBuff(payload=1000, headers=52, kind=kind, seq=i * 1000,
                     end_seq=(i + 1) * 1000)
        frames.append(skb)
        link.transmit(skb)
    env.run()
    return frames


def test_loss_tap_drops_selected_indices():
    env = Environment()
    link, sink = make_link(env)
    tap = LossTap(env, link, drops={1, 3})
    frames = send(env, link, 5)
    delivered = [ident for ident, _, _ in sink.frames]
    assert frames[1].ident not in delivered
    assert frames[3].ident not in delivered
    assert len(delivered) == 3
    assert len(tap.dropped) == 2


def test_loss_tap_ignores_other_kinds():
    env = Environment()
    link, sink = make_link(env)
    LossTap(env, link, drops={0}, kinds=("data",))
    send(env, link, 2, kind="ack")
    assert len(sink.frames) == 2


def test_duplicate_tap_delivers_twice():
    env = Environment()
    link, sink = make_link(env)
    DuplicateTap(env, link, duplicates={0})
    send(env, link, 2)
    assert len(sink.frames) == 3
    seqs = [seq for _, seq, _ in sink.frames]
    assert seqs.count(0) == 2


def test_reorder_tap_lets_later_frames_overtake():
    env = Environment()
    link, sink = make_link(env)
    ReorderTap(env, link, holds={0}, delay_s=1e-3)
    frames = send(env, link, 3)
    order = [ident for ident, _, _ in sink.frames]
    assert order[-1] == frames[0].ident  # held frame arrives last
    assert len(order) == 3


def test_tap_requires_connected_link():
    env = Environment()
    link = EthernetLink(env, Gbps(10))
    with pytest.raises(TopologyError):
        LossTap(env, link, drops={0})


def test_reorder_tap_negative_delay_rejected():
    env = Environment()
    link, _ = make_link(env)
    with pytest.raises(TopologyError):
        ReorderTap(env, link, holds={0}, delay_s=-1.0)

