"""Environment.then: a zero-delay tail hop that runs directly when it
would be the next entry anyway, and goes on the same-instant lane
otherwise."""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TuningConfig
from repro.hw.host import Host
from repro.hw.presets import PE2650
from repro.oskernel.skbuff import SkBuff
from repro.sim import Environment
from repro.tcp.mss import MtuProfile
from repro.tcp.receiver import TcpReceiver


def test_direct_call_when_lane_empty_and_nothing_due():
    env = Environment()
    log = []

    def entry():
        before = env.events_scheduled
        env.then(log.append, ("hop", env.now))
        # ran inside the call, scheduled nothing
        assert log == [("hop", 1.0)]
        assert env.events_scheduled == before

    env.schedule_call(1.0, entry)
    env.schedule_call(2.0, log.append, "later")
    env.run()
    assert log == [("hop", 1.0), "later"]
    assert env.pending_count() == 0


def test_falls_back_to_lane_when_lane_not_empty():
    env = Environment()
    log = []

    def entry():
        env.schedule_call(0.0, log.append, "lane first")
        before = env.events_scheduled
        env.then(log.append, "hop")
        assert log == []
        assert env.events_scheduled == before + 1

    env.schedule_call(1.0, entry)
    env.run()
    assert log == ["lane first", "hop"]


def test_falls_back_to_lane_when_queued_entry_due_now():
    env = Environment()
    log = []

    def entry():
        env.then(log.append, "hop")
        assert log == []

    env.schedule_call(1.0, entry)
    env.schedule_call(1.0, log.append, "queued")
    env.run()
    assert log == ["queued", "hop"]


def test_nested_hop_goes_on_the_lane():
    env = Environment()
    log = []

    def inner():
        log.append("inner")

    def outer():
        log.append("outer")
        env.then(inner)
        # outer runs directly, so its own hop waits on the lane
        assert log == ["outer"]

    env.schedule_call(1.0, env.then, outer)
    env.run()
    assert log == ["outer", "inner"]


def test_direct_call_exception_resets_state():
    env = Environment()
    log = []

    def boom():
        raise ValueError("boom")

    def entry():
        env.then(boom)

    env.schedule_call(1.0, entry)
    try:
        env.run()
    except ValueError:
        pass
    else:  # pragma: no cover - the hop must raise
        raise AssertionError("hop did not run")
    env.schedule_call(1.0, lambda: env.then(log.append, "direct"))
    env.run()
    assert log == ["direct"]


def test_call_nested_sends_hops_to_the_lane():
    env = Environment()
    log = []

    def step(name):
        log.append(name)
        env.then(log.append, name + " hop")

    def entry():
        env.call_nested(step, "a")
        assert log == ["a"]           # a's hop waits on the lane
        env.then(step, "b")           # so the tail hop queues behind it
        assert log == ["a"]

    env.schedule_call(1.0, entry)
    env.run()
    assert log == ["a", "a hop", "b", "b hop"]
    assert not env._inline


def test_call_nested_inside_a_direct_hop_keeps_the_guard():
    env = Environment()
    seen = []

    def inner():
        seen.append(env.then_runs_direct())

    def outer():
        env.call_nested(inner)
        seen.append(env.then_runs_direct())

    env.schedule_call(1.0, env.then, outer)
    env.run()
    assert seen == [False, False]
    assert not env._inline


def test_then_runs_direct_reports_then_condition():
    env = Environment()
    seen = []

    def entry():
        seen.append(env.then_runs_direct())
        env.schedule_call(0.0, seen.append, "lane")
        seen.append(env.then_runs_direct())

    env.schedule_call(1.0, entry)
    env.schedule_call(2.0, entry)
    env.schedule_call(2.0, seen.append, "queued")
    env.run()
    assert seen == [True, False, "lane", False, False, "queued", "lane"]


# -- a tail-position then gives the firing log of schedule_call(0.0) ------

DELAYS = st.sampled_from([0.0, 1e-30, 1e-9, 2.5e-6, 1e-3])

#: An entry: (delays of the children it schedules, its tail hop or None).
#: A tail hop is itself an entry, so chains of hops come out too.
ENTRIES = st.recursive(
    st.just(((), None)),
    lambda children: st.tuples(
        st.lists(st.tuples(DELAYS, children), max_size=3),
        st.one_of(st.none(), children)),
    max_leaves=30)


class Program:
    """Runs a generated entry tree, naming each entry by its tree path,
    with every tail hop made by ``hop(fn, *args)``."""

    def __init__(self, env, hop):
        self.env = env
        self.hop = hop
        self.log = []

    def fire(self, path, entry):
        self.log.append((path, self.env.now))
        children, tail = entry
        for i, (delay, sub) in enumerate(children):
            self.env.schedule_call(delay, self.fire, path + (i,), sub)
        if tail is not None:
            self.hop(self.fire, path + ("t",), tail)


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.tuples(DELAYS, ENTRIES), min_size=1, max_size=4))
def test_tail_then_matches_zero_delay_call(roots):
    logs = []
    for use_then in (False, True):
        env = Environment()
        hop = (env.then if use_then
               else (lambda fn, *args: env.schedule_call(0.0, fn, *args)))
        program = Program(env, hop)
        for i, (delay, entry) in enumerate(roots):
            env.schedule_call(delay, program.fire, (i,), entry)
        env.run()
        logs.append(program.log)
    assert logs[0] == logs[1]


# -- a long backlog chain does not deepen the stack ------------------------

def _depth():
    frame = sys._getframe(1)
    depth = 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_long_hop_chain_keeps_the_stack_flat():
    env = Environment()
    depths = []

    def step(n):
        depths.append(_depth())
        if n:
            env.then(step, n - 1)

    env.schedule_call(1.0, step, 5 * sys.getrecursionlimit())
    env.run()
    assert len(depths) == 5 * sys.getrecursionlimit() + 1
    assert max(depths) - min(depths) <= 2


class _SinkNic:
    address = "sink.eth0"

    def send(self, skb):
        return True


class _LogNic(_SinkNic):
    def __init__(self, env):
        self.env = env
        self.log = []

    def send(self, skb):
        self.log.append((skb.ack, self.env.now))
        return True


def test_rx_backlog_chain_keeps_the_stack_flat(monkeypatch):
    """Free segment processing and ACK generation make every _rx_done
    hop find nothing due now: the whole backlog drains through direct
    and lane hops alternately, never one nested call per segment."""
    env = Environment()
    cfg = TuningConfig.oversized_windows(9000)
    host = Host(env, PE2650, cfg, name="R")
    monkeypatch.setattr(host.costs, "rx_segment_s", lambda payload: 0.0)
    monkeypatch.setattr(host.costs, "rx_ack_gen_s", lambda: 0.0)
    rx = TcpReceiver(env, host, _SinkNic(), conn=1, src_address="peer",
                     profile=MtuProfile(mtu=9000, timestamps=True),
                     peer_advertised_mss=8960)
    depths = []
    begin = rx._rx_begin

    def traced_begin(skb):
        depths.append(_depth())
        begin(skb)

    monkeypatch.setattr(rx, "_rx_begin", traced_begin)
    segments = 4 * sys.getrecursionlimit()
    payload = 100

    def arrive():
        # one entry delivering every segment, none of them its tail
        for i in range(segments):
            env.call_nested(rx.on_data_frame,
                            SkBuff(payload=payload, headers=64,
                                   kind="data", seq=i * payload,
                                   end_seq=(i + 1) * payload, conn=1))

    env.schedule_call(1e-3, arrive)
    env.run(until=1.0)
    assert len(depths) == segments
    assert rx.rcv_nxt == segments * payload
    assert max(depths) - min(depths) <= 8


def test_interrupt_batch_keeps_the_stack_flat(monkeypatch):
    """One interrupt batch of many segments into a receiver with free
    processing: the host runs every frame's handler but the last nested,
    so no segment's processing hop runs inside the dispatch loop and
    none nests in the one before.  The trace (every frame's dispatch,
    then the segment processing) and the ACKs equal the ones with every
    hop a zero-delay entry."""
    segments = 4 * sys.getrecursionlimit()
    payload = 100
    runs = []
    for use_then in (True, False):
        env = Environment()
        cfg = TuningConfig.oversized_windows(9000)
        host = Host(env, PE2650, cfg, name="R")
        host.trace.enabled = True
        # the interrupt cost stays: the batch dispatch is its own entry
        monkeypatch.setattr(host.costs, "rx_ack_gen_s", lambda: 0.0)
        monkeypatch.setattr(host.costs, "rx_segment_s",
                            lambda payload: 0.0)
        if not use_then:
            monkeypatch.setattr(
                env, "then",
                lambda fn, *args: env.schedule_call(0.0, fn, *args))
        nic = _LogNic(env)
        rx = TcpReceiver(env, host, nic, conn=1, src_address="peer",
                         profile=MtuProfile(mtu=9000, timestamps=True),
                         peer_advertised_mss=8960)
        host.register_handler(1, rx.on_data_frame)
        depths = []
        begin = rx._rx_begin

        def traced_begin(skb, begin=begin, depths=depths):
            depths.append(_depth())
            begin(skb)

        monkeypatch.setattr(rx, "_rx_begin", traced_begin)
        batch = [SkBuff(payload=payload, headers=64, kind="data",
                        seq=i * payload, end_seq=(i + 1) * payload, conn=1)
                 for i in range(segments)]
        env.schedule_call(1e-3, host.deliver_rx, None, batch)
        env.run(until=1.0)
        assert len(depths) == segments
        assert max(depths) - min(depths) <= 8
        assert rx.rcv_nxt == segments * payload
        trace = [(ev.point, ev.time) for ev in host.trace]
        runs.append((nic.log, trace, env.events_scheduled))
    (acks_then, trace_then, events_then), (acks_lane, trace_lane,
                                           events_lane) = runs
    assert acks_then == acks_lane
    assert trace_then == trace_lane
    assert events_then < events_lane
