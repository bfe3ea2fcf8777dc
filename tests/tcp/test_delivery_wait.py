"""Readers blocked on delivery: ``TcpReceiver.when_delivered`` and its
callers ``TcpConnection.wait_delivered`` and ``SimSocket.recv``.

A waiter is woken by the delivery that meets its target, on the first
tick of its ``poll_s`` grid after that delivery, and schedules nothing
while it waits.
"""

import math

import pytest

from repro.config import TuningConfig
from repro.errors import ProtocolError, SimulationError
from repro.net.topology import BackToBack
from repro.oskernel.skbuff import SkBuff
from repro.sim import Environment
from repro.sockets import SimSocket
from repro.tcp.connection import TcpConnection


def connection(cfg=None):
    env = Environment()
    bb = BackToBack.create(env, cfg or TuningConfig.fully_tuned(9000))
    return env, TcpConnection(env, bb.a, bb.b)


def deliver_at(env, receiver, at, payload=100):
    """Run ``receiver._drain_done`` for ``payload`` bytes at ``at``."""
    skb = SkBuff(payload=payload, meta={"charged": 0})
    env.schedule_call_at(at, receiver._drain_done, skb)


def wake_time(env, event):
    woke = []
    event.add_callback(lambda _: woke.append(env.now))
    env.run(until=event)
    return woke[0]


@pytest.mark.parametrize("delivered_at", [1.0, 1.1])
def test_wake_on_next_tick_after_delivery(delivered_at):
    # Grid 0.25, 0.5, 0.75, 1.0, 1.25 from t=0.  A tick that lands on
    # the delivery instant counts as having polled first.
    env, conn = connection()
    rx = conn.receiver
    deliver_at(env, rx, delivered_at)
    wake = rx.when_delivered(100, poll_s=0.25)
    assert wake_time(env, wake) == 1.25


def test_wake_grid_is_stepped_like_a_poll_loop():
    # 0.1 is not a binary fraction: the grid is t0 + 0.1 + 0.1 + ...
    # (repeated addition), not t0 + k * 0.1.
    env, conn = connection()
    rx = conn.receiver
    env.run(until=0.3)
    deliver_at(env, rx, 1.0)
    wake = rx.when_delivered(100, poll_s=0.1)
    t = 0.3
    while t <= 1.0:
        t = t + 0.1
    assert wake_time(env, wake) == t


def test_met_target_schedules_nothing():
    env, conn = connection()
    before = env.events_scheduled
    assert conn.receiver.when_delivered(0, poll_s=1e-4) is None
    assert list(conn.wait_delivered(0)) == []
    assert env.events_scheduled == before


def test_waiters_wake_in_target_order():
    env, conn = connection()
    mss = conn.sender.mss
    woke = []

    def waiter(target):
        yield from conn.wait_delivered(target, poll_s=1e-7)
        woke.append((env.now, target))

    for target in (3 * mss, mss, 2 * mss):
        env.process(waiter(target))
    env.run(until=env.process(conn.send_stream(mss, 3)))
    env.run()
    assert [target for _, target in woke] == [mss, 2 * mss, 3 * mss]
    times = [t for t, _ in woke]
    assert times == sorted(set(times))


def test_wait_for_bytes_never_sent_drains_the_queue():
    # With nothing left to deliver, the waiter keeps nothing queued: the
    # run drains instead of ticking forever.
    env, conn = connection()

    def app():
        yield from conn.write(1000)
        yield from conn.wait_delivered(2000)

    done = env.process(app())
    env.run(until=0.5)
    assert conn.receiver.bytes_delivered == 1000
    before = env.events_scheduled
    env.run(until=0.9)
    assert env.events_scheduled == before
    assert not done.triggered
    with pytest.raises(SimulationError, match="drained before"):
        env.run(until=done)


BAD_POLLS = [0.0, -1e-4, math.nan, math.inf]


@pytest.mark.parametrize("poll_s", BAD_POLLS)
def test_bad_wake_grid_refused_before_scheduling(poll_s):
    env, conn = connection()
    rx_sock = SimSocket(conn, "rx")
    before = env.events_scheduled
    for waiting in (conn.wait_delivered(1000, poll_s=poll_s),
                    rx_sock.recv(1000, poll_s=poll_s),
                    rx_sock.recv_exactly(1000, poll_s=poll_s)):
        with pytest.raises(ProtocolError, match="poll_s"):
            next(waiting)
    assert env.events_scheduled == before
