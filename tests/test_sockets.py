"""Tests for the socket-style façade."""

import pytest

from repro.config import TuningConfig
from repro.errors import ProtocolError
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.sockets import SimSocket, connect


def pair(cfg=None):
    env = Environment()
    bb = BackToBack.create(env, cfg or TuningConfig.oversized_windows(9000))
    tx, rx = connect(env, bb.a, bb.b)
    return env, tx, rx


def test_sendall_recv_exactly_roundtrip():
    env, tx, rx = pair()
    n = 512 * 1024
    received = {}

    def client():
        yield from tx.sendall(n)

    def server():
        got = yield from rx.recv_exactly(n)
        received["n"] = got

    env.process(client())
    done = env.process(server())
    env.run(until=done)
    assert received["n"] == n


def test_recv_returns_partial_like_bsd():
    env, tx, rx = pair()
    got = {}

    def client():
        yield from tx.sendall(1000)

    def server():
        got["n"] = yield from rx.recv(10**9)

    env.process(client())
    done = env.process(server())
    env.run(until=done)
    assert 0 < got["n"] <= 1000


def test_recv_cursor_advances_not_rereads():
    env, tx, rx = pair()
    counts = []

    def client():
        yield from tx.sendall(30000)

    def server():
        counts.append((yield from rx.recv_exactly(10000)))
        counts.append((yield from rx.recv_exactly(20000)))

    env.process(client())
    done = env.process(server())
    env.run(until=done)
    assert counts == [10000, 20000]


def test_role_enforcement():
    env, tx, rx = pair()
    with pytest.raises(ProtocolError):
        list(tx.recv(10))
    with pytest.raises(ProtocolError):
        list(rx.sendall(10))


def test_invalid_sizes():
    env, tx, rx = pair()
    with pytest.raises(ProtocolError):
        list(tx.sendall(0))
    with pytest.raises(ProtocolError):
        list(rx.recv(0))


def test_invalid_role():
    env, tx, _ = pair()
    with pytest.raises(ProtocolError):
        SimSocket(tx.connection, "duplex")
