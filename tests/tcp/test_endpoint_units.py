"""Direct unit tests of the sender/receiver state machines.

These bypass the full topology: a :class:`FakeNic` captures frames so
each state transition can be driven by hand — the complement of the
end-to-end tests in test_connection_des.py.
"""

import pytest

from repro.config import TuningConfig
from repro.hw.host import Host
from repro.hw.presets import PE2650
from repro.oskernel.skbuff import SkBuff
from repro.sim import Environment
from repro.tcp.mss import MtuProfile
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import MIN_RTO_S, TcpSender
from repro.units import KB


class FakeNic:
    """Captures frames instead of transmitting them."""

    def __init__(self, env):
        self.env = env
        self.sent = []
        self.address = "fake.eth0"

    def send(self, skb):
        self.sent.append(skb)
        return True

    def enqueue(self, skb, done):
        # accepted at once: done(skb) runs as the next zero-delay entry
        self.sent.append(skb)
        self.env.schedule_call(0.0, done, skb)


def make_sender(env, config=None, rwnd=KB(192)):
    cfg = config or TuningConfig.oversized_windows(9000)
    host = Host(env, PE2650, cfg, name="S")
    nic = FakeNic(env)
    profile = MtuProfile(mtu=cfg.mtu, timestamps=cfg.tcp_timestamps)
    sender = TcpSender(env, host, nic, conn=1, dst_address="peer",
                       profile=profile, initial_rwnd=rwnd)
    return sender, nic, host


def ack(sender, ack_seq, win=KB(192)):
    skb = SkBuff(payload=0, headers=52, kind="ack", ack=ack_seq,
                 conn=1, meta={"win": win})
    sender.on_ack_frame(skb)


class TestSenderUnit:
    def test_initial_cwnd_limits_first_burst(self):
        env = Environment()
        sender, nic, _ = make_sender(env)

        def app():
            yield from sender.write(8948 * 6)

        env.process(app())
        env.run(until=0.05)
        # initial cwnd = 2 segments
        assert len(nic.sent) == 2
        assert sender.bytes_in_flight == 2 * 8948

    def test_ack_releases_more_segments(self):
        env = Environment()
        sender, nic, _ = make_sender(env)

        def app():
            yield from sender.write(8948 * 6)

        env.process(app())
        env.run(until=0.05)
        ack(sender, 2 * 8948)
        env.run(until=0.1)
        # cwnd grew to 4 in slow start; 4 more in flight
        assert len(nic.sent) == 6
        assert sender.snd_una == 2 * 8948

    def test_rwnd_zero_stalls_sender(self):
        env = Environment()
        sender, nic, _ = make_sender(env, rwnd=0)

        def app():
            yield from sender.write(8948)

        env.process(app())
        env.run(until=0.01)
        assert len(nic.sent) == 0
        # window update reopens the flow
        ack(sender, 0, win=KB(64))
        env.run(until=0.02)
        assert len(nic.sent) == 1

    def test_three_dupacks_trigger_fast_retransmit(self):
        env = Environment()
        sender, nic, _ = make_sender(env)

        def app():
            yield from sender.write(8948 * 8)

        env.process(app())
        env.run(until=0.05)
        baseline = len(nic.sent)
        for _ in range(3):
            ack(sender, 0)
        env.run(until=0.1)
        retransmits = [s for s in nic.sent if s.meta.get("retransmit")]
        assert len(retransmits) == 1
        assert retransmits[0].seq == 0
        assert sender.cwnd.in_recovery

    def test_rto_fires_without_acks(self):
        env = Environment()
        sender, nic, _ = make_sender(env)

        def app():
            yield from sender.write(8948)

        env.process(app())
        env.run(until=MIN_RTO_S * 12)
        retransmits = [s for s in nic.sent if s.meta.get("retransmit")]
        assert len(retransmits) >= 1
        assert sender.cwnd.timeouts >= 1

    def test_wmem_accounting_returns_on_ack(self):
        env = Environment()
        cfg = TuningConfig.oversized_windows(9000).replace(tcp_wmem=KB(32))
        sender, nic, _ = make_sender(env, config=cfg)
        done = {"flag": False}

        def app():
            yield from sender.write(8948 * 4)
            done["flag"] = True

        env.process(app())
        env.run(until=0.01)
        assert not done["flag"]           # blocked: 32K / 16K truesize = 2
        ack(sender, 8948)
        env.run(until=0.02)
        ack(sender, 2 * 8948)
        env.run(until=0.03)
        ack(sender, 4 * 8948)
        env.run(until=0.04)
        assert done["flag"]
        assert sender.wmem_used <= KB(32)


def make_receiver(env, config=None):
    cfg = config or TuningConfig.oversized_windows(9000)
    host = Host(env, PE2650, cfg, name="R")
    nic = FakeNic(env)
    profile = MtuProfile(mtu=cfg.mtu, timestamps=cfg.tcp_timestamps)
    receiver = TcpReceiver(env, host, nic, conn=1, src_address="peer",
                           profile=profile, peer_advertised_mss=8960)
    return receiver, nic, host


def data(seq, payload=8948):
    return SkBuff(payload=payload, headers=64, kind="data", seq=seq,
                  end_seq=seq + payload, conn=1)


class TestReceiverUnit:
    def test_in_order_advances_rcv_nxt(self):
        env = Environment()
        rx, nic, _ = make_receiver(env)
        rx.on_data_frame(data(0))
        rx.on_data_frame(data(8948))
        env.run()
        assert rx.rcv_nxt == 2 * 8948
        assert rx.bytes_delivered == 2 * 8948

    def test_out_of_order_held_then_flushed(self):
        env = Environment()
        rx, nic, _ = make_receiver(env)
        rx.on_data_frame(data(8948))   # gap
        env.run()
        assert rx.rcv_nxt == 0
        assert len(rx._ooo) == 1
        rx.on_data_frame(data(0))      # fills the hole
        env.run()
        assert rx.rcv_nxt == 2 * 8948
        assert not rx._ooo

    def test_ooo_generates_immediate_dupack(self):
        env = Environment()
        rx, nic, _ = make_receiver(env)
        rx.on_data_frame(data(8948))
        env.run()
        acks = [s for s in nic.sent if s.kind == "ack"]
        assert acks and acks[-1].ack == 0

    def test_old_duplicate_reacked_not_redelivered(self):
        env = Environment()
        rx, nic, _ = make_receiver(env)
        rx.on_data_frame(data(0))
        env.run()
        delivered = rx.bytes_delivered
        rx.on_data_frame(data(0))      # stale retransmission
        env.run()
        assert rx.bytes_delivered == delivered
        assert rx.duplicates == 1

    def test_delayed_ack_covers_two_segments(self):
        env = Environment()
        rx, nic, _ = make_receiver(env)
        rx.on_data_frame(data(0))
        rx.on_data_frame(data(8948))
        env.run()
        acks = [s for s in nic.sent if s.kind == "ack"]
        cumulative = [a for a in acks if a.ack == 2 * 8948]
        assert cumulative

    def test_window_advertised_in_acks(self):
        env = Environment()
        rx, nic, _ = make_receiver(env)
        rx.on_data_frame(data(0))
        rx.on_data_frame(data(8948))
        env.run()
        acks = [s for s in nic.sent if s.kind == "ack"]
        assert all("win" in a.meta for a in acks)
        assert all(a.meta["win"] % rx.align_mss == 0 for a in acks)
