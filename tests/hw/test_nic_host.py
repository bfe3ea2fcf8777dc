"""Unit tests for the adapter and host models."""

import pytest

from repro.config import TuningConfig
from repro.errors import TopologyError
from repro.hw.host import Host
from repro.hw.nic import RX_RING_FRAMES, TenGigAdapter
from repro.hw.presets import PE2650
from repro.net.ethernet import EthernetLink
from repro.oskernel.skbuff import SkBuff
from repro.sim import Environment
from repro.units import Gbps, us


class Collector:
    """Terminal sink for frames."""

    def __init__(self):
        self.frames = []

    def receive_frame(self, skb):
        self.frames.append(skb)


def make_host_pair(config=None):
    env = Environment()
    cfg = config or TuningConfig.stock(9000)
    a = Host(env, PE2650, cfg, name="A")
    b = Host(env, PE2650, cfg, name="B")
    nic_a = TenGigAdapter(env, a, address="A.eth0")
    nic_b = TenGigAdapter(env, b, address="B.eth0")
    ab = EthernetLink(env, Gbps(10), 10.0, cfg.mtu, name="ab")
    nic_a.set_egress(ab)
    ab.connect(nic_b)
    return env, a, b, nic_a, nic_b


def test_send_without_egress_rejected():
    env = Environment()
    host = Host(env, PE2650, TuningConfig.stock())
    nic = TenGigAdapter(env, host, address="X.eth0")
    with pytest.raises(TopologyError):
        nic.send(SkBuff(payload=100, headers=52))


def test_frame_travels_host_to_host():
    env, a, b, nic_a, nic_b = make_host_pair()
    got = []
    b.register_handler("c1", lambda skb, batch: got.append((skb, env.now)))
    skb = SkBuff(payload=1000, headers=52, conn="c1", meta={"dst": "B.eth0"})
    nic_a.send(skb)
    env.run()
    assert len(got) == 1
    delivered, t = got[0]
    assert delivered.ident == skb.ident
    assert t > 0


def test_interrupt_coalescing_batches_frames():
    cfg = TuningConfig.stock(9000).replace(interrupt_coalescing_us=5.0)
    env, a, b, nic_a, nic_b = make_host_pair(cfg)
    batches = []
    b.register_handler("c1", lambda skb, batch: batches.append(batch))
    for _ in range(4):
        nic_a.send(SkBuff(payload=64, headers=52, conn="c1",
                          meta={"dst": "B.eth0"}))
    env.run()
    assert sum(1 for _ in batches) == 4
    # at least one interrupt served more than one frame
    assert max(batches) >= 2
    assert nic_b.interrupts.total < 4


def test_no_coalescing_one_interrupt_per_frame():
    cfg = TuningConfig.stock(9000).replace(interrupt_coalescing_us=0.0)
    env, a, b, nic_a, nic_b = make_host_pair(cfg)
    b.register_handler("c1", lambda skb, batch: None)
    for _ in range(4):
        nic_a.send(SkBuff(payload=64, headers=52, conn="c1",
                          meta={"dst": "B.eth0"}))
    env.run()
    assert nic_b.interrupts.total == 4


def test_txqueue_overflow_drops_nonblocking_sends():
    cfg = TuningConfig.stock(9000).replace(txqueuelen=2)
    env, a, b, nic_a, nic_b = make_host_pair(cfg)
    b.register_handler("c1", lambda skb, batch: None)
    accepted = sum(
        nic_a.send(SkBuff(payload=8000, headers=52, conn="c1",
                          meta={"dst": "B.eth0"}))
        for _ in range(10))
    assert accepted < 10
    assert nic_a.tx_drops.total == 10 - accepted
    env.run()


def test_blocking_enqueue_applies_backpressure():
    cfg = TuningConfig.stock(9000).replace(txqueuelen=2)
    env, a, b, nic_a, nic_b = make_host_pair(cfg)
    b.register_handler("c1", lambda skb, batch: None)
    sent = []

    def produce(i):
        # one frame at a time: the next enqueue waits for acceptance
        if i == 6:
            return
        skb = SkBuff(payload=8000, headers=52, conn="c1",
                     meta={"dst": "B.eth0"})
        nic_a.enqueue(skb, lambda _skb: accepted(i))

    def accepted(i):
        sent.append(i)
        produce(i + 1)

    env.schedule_call(0.0, produce, 0)
    env.run()
    assert sent == list(range(6))          # all eventually accepted
    assert nic_a.tx_drops.total == 0       # none dropped


def test_full_txqueue_accepts_in_the_order_of_the_event_form():
    """Six frames offered at once to a two-frame queue: two are accepted
    at once, and each further one when the engine's service start frees
    a slot.  The (frame, instant, queue level) log is the one the
    Event-returning enqueue gave, recorded to the float bit."""
    cfg = TuningConfig.stock(9000).replace(txqueuelen=2)
    env, a, b, nic_a, nic_b = make_host_pair(cfg)
    b.register_handler("c1", lambda skb, batch: None)
    log = []

    def burst():
        for i in range(6):
            skb = SkBuff(payload=8000, headers=52, conn="c1",
                         meta={"dst": "B.eth0"})

            def done(_skb, i=i):
                log.append((i, repr(env.now), nic_a.txq.level))

            # only the last enqueue is the tail of this entry
            if i < 5:
                env.call_nested(nic_a.enqueue, skb, done)
            else:
                nic_a.enqueue(skb, done)

    env.schedule_call(1e-6, burst)
    env.run()
    assert log == [(0, "1e-06", 2), (1, "1e-06", 2), (2, "1e-06", 2),
                   (3, "2.5944586466165417e-05", 2),
                   (4, "5.0889172932330836e-05", 2),
                   (5, "7.583375939849624e-05", 2)]
    assert repr(env.now) == "0.00018872024162679425"
    assert nic_a.tx_frames.total == 6
    assert nic_a.tx_drops.total == 0


def test_tail_enqueue_runs_done_and_engine_start_directly():
    env, a, b, nic_a, nic_b = make_host_pair()
    b.register_handler("c1", lambda skb, batch: None)
    log = []

    def entry():
        skb = SkBuff(payload=8000, headers=52, conn="c1",
                     meta={"dst": "B.eth0"})
        before = env.events_scheduled
        nic_a.enqueue(skb, lambda _skb: log.append(env.now))
        # done ran inside the call; the engine started the DMA, whose
        # completion is the only entry scheduled
        assert log == [1e-6]
        assert env.events_scheduled == before + 1
        assert not nic_a._backlog

    env.schedule_call(1e-6, entry)
    env.run()
    assert nic_a.tx_frames.total == 1


def test_tso_resegments_super_frames():
    cfg = TuningConfig.stock(9000).replace(tso=True)
    env, a, b, nic_a, nic_b = make_host_pair(cfg)
    got = []
    b.register_handler("c1", lambda skb, batch: got.append(skb))
    super_skb = SkBuff(payload=30000, headers=52, kind="data",
                       seq=0, end_seq=30000, conn="c1",
                       meta={"dst": "B.eth0"})
    nic_a.send(super_skb)
    env.run()
    assert len(got) == 4  # ceil(30000 / 8948)
    assert sum(f.payload for f in got) == 30000
    assert [f.seq for f in got] == sorted(f.seq for f in got)
    assert all(f.payload + f.headers <= cfg.mtu for f in got)


def test_host_requires_handler():
    env, a, b, nic_a, nic_b = make_host_pair()
    nic_a.send(SkBuff(payload=100, headers=52, conn="mystery",
                      meta={"dst": "B.eth0"}))
    with pytest.raises(Exception):
        env.run()


def test_default_handler_catches_unregistered():
    env, a, b, nic_a, nic_b = make_host_pair()
    got = []
    b.set_default_handler(lambda skb, batch: got.append(skb))
    nic_a.send(SkBuff(payload=100, headers=52, conn="mystery",
                      meta={"dst": "B.eth0"}))
    env.run()
    assert len(got) == 1


def test_dual_bus_adapters_are_independent():
    env = Environment()
    host = Host(env, PE2650, TuningConfig.stock())
    nic1 = TenGigAdapter(env, host, address="H.eth0")
    nic2 = TenGigAdapter(env, host, address="H.eth1", own_bus=True)
    assert nic1.pcix is host.pcix
    assert nic2.pcix is not host.pcix
    assert host.nic is nic1


def test_host_without_adapter_raises():
    env = Environment()
    host = Host(env, PE2650, TuningConfig.stock())
    with pytest.raises(TopologyError):
        host.nic
