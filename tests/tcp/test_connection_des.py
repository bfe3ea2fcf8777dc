"""Discrete-event TCP endpoint tests: delivery, ordering, recovery."""

import pytest

from repro.config import TuningConfig
from repro.errors import ProtocolError
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.units import KB


def transfer(cfg, payload, count, **conn_kw):
    env = Environment()
    bb = BackToBack.create(env, cfg)
    conn = TcpConnection(env, bb.a, bb.b, **conn_kw)

    def app():
        yield from conn.send_stream(payload, count)
        yield from conn.wait_delivered(payload * count)

    env.run(until=env.process(app()))
    return env, conn


def test_all_bytes_delivered_exactly_once():
    env, conn = transfer(TuningConfig.fully_tuned(9000), 8948, 64)
    assert conn.receiver.bytes_delivered == 8948 * 64
    assert conn.receiver.duplicates == 0
    assert conn.sender.retransmitted == 0


def test_mss_negotiated_from_path_minimum():
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.stock(9000),
                           config_b=TuningConfig.stock(1500))
    conn = TcpConnection(env, bb.a, bb.b)
    assert conn.sender.mss == 1448  # limited by the 1500 end


def test_segments_cut_at_mss():
    env, conn = transfer(TuningConfig.fully_tuned(9000), 20000, 8)
    # 20000 bytes -> 2x8948 + 2104 per write
    assert conn.sender.segments_sent == 8 * 3


def test_write_boundaries_not_coalesced():
    env, conn = transfer(TuningConfig.fully_tuned(9000), 5000, 10)
    # each 5000-byte write is its own segment
    assert conn.sender.segments_sent == 10


def test_wmem_blocks_writer():
    cfg = TuningConfig.fully_tuned(9000).replace(tcp_wmem=KB(32))
    env, conn = transfer(cfg, 8948, 32)
    assert conn.receiver.bytes_delivered == 8948 * 32
    # 32 KB of 16 KB-truesize segments: at most 2 queued at once
    assert conn.sender.wmem_used <= KB(32)


def test_acks_flow_back():
    env, conn = transfer(TuningConfig.fully_tuned(9000), 8948, 64)
    assert conn.sender.acks_received > 0
    assert conn.sender.snd_una == 8948 * 64


def test_delayed_ack_halves_ack_count():
    env, conn = transfer(TuningConfig.oversized_windows(9000), 8948, 128)
    # roughly one ack per two segments (plus window updates)
    assert conn.receiver.acks_sent < 128 * 0.95


def test_rtt_estimated():
    env, conn = transfer(TuningConfig.fully_tuned(9000), 8948, 64)
    assert conn.sender.srtt_s is not None
    assert 10e-6 < conn.sender.srtt_s < 3e-3


def test_goodput_positive_and_sane():
    env, conn = transfer(TuningConfig.fully_tuned(8160), 8108, 128)
    g = conn.receiver.goodput_bps()
    assert 1e9 < g < 8.5e9  # between GbE and the PCI-X ceiling


def test_invalid_write_rejected():
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.stock())
    conn = TcpConnection(env, bb.a, bb.b)
    with pytest.raises(ProtocolError):
        list(conn.write(0))
    with pytest.raises(ProtocolError):
        list(conn.send_stream(0, 5))


def test_retransmission_rate_zero_without_loss():
    env, conn = transfer(TuningConfig.fully_tuned(9000), 8948, 64)
    assert conn.sender.retransmitted == 0


def test_two_connections_share_host_independently():
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.fully_tuned(9000))
    c1 = TcpConnection(env, bb.a, bb.b)
    c2 = TcpConnection(env, bb.a, bb.b)

    def app(conn, n):
        yield from conn.send_stream(8948, n)
        yield from conn.wait_delivered(8948 * n)

    p1 = env.process(app(c1, 32))
    p2 = env.process(app(c2, 32))
    env.run(until=p1)
    env.run(until=p2)
    assert c1.receiver.bytes_delivered == 8948 * 32
    assert c2.receiver.bytes_delivered == 8948 * 32


class LossyLink:
    """Wraps a link sink, dropping chosen data frames once."""

    def __init__(self, inner, drop_idents):
        self.inner = inner
        self.drop_idents = set(drop_idents)
        self.dropped = []

    def receive_frame(self, skb):
        if skb.kind == "data" and skb.meta.get("drop_me") \
                and skb.ident not in self.dropped:
            self.dropped.append(skb.ident)
            return
        self.inner.receive_frame(skb)


def test_fast_retransmit_recovers_from_single_loss():
    env = Environment()
    cfg = TuningConfig.oversized_windows(9000)
    bb = BackToBack.create(env, cfg)
    conn = TcpConnection(env, bb.a, bb.b)
    fwd = bb.links[0]
    tap = LossyLink(fwd.sink, drop_idents=())
    fwd.connect(tap)
    # mark the 20th data segment for a one-time drop
    counter = {"n": 0}
    original_receive = tap.inner.receive_frame

    def dropping_receive(skb):
        if skb.kind == "data" and not skb.meta.get("retransmit"):
            counter["n"] += 1
            if counter["n"] == 20:
                return  # dropped
        original_receive(skb)

    tap.receive_frame = dropping_receive
    total = 8948 * 128

    def app():
        yield from conn.send_stream(8948, 128)
        yield from conn.wait_delivered(total)

    env.run(until=env.process(app()))
    assert conn.receiver.bytes_delivered == total
    assert conn.sender.retransmitted >= 1
    assert conn.sender.cwnd.fast_retransmits + conn.sender.cwnd.timeouts >= 1
