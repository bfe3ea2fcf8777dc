"""Socket-style façade over the simulated stack.

The paper's selling point for 10GbE over Myrinet/QsNet is that it is "a
general-purpose, TCP/IP-based solution to applications, a solution that
does not require any modification to application codes".  This module
honours that by giving simulation users the sockets idiom they already
know: a :class:`SimSocket` with ``sendall``/``recv``/``recv_exactly`` that work
as byte *counts* (the simulator models timing, not payload contents).

Usage from a process::

    sock = connect(env, client_host, server_host)
    yield from sock.sendall(10 * 1024 * 1024)
    ...
    received = yield from peer.recv(65536)   # on the other end
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ProtocolError
from repro.sim.engine import Environment
from repro.tcp.connection import TcpConnection

__all__ = ["SimSocket", "connect"]


class SimSocket:
    """One end of an established simulated connection.

    The ``tx`` role wraps the sending side (``send``/``sendall``); the
    ``rx`` role wraps the receiving side (``recv``).  ``connect``
    returns the pair.
    """

    def __init__(self, connection: TcpConnection, role: str):
        if role not in ("tx", "rx"):
            raise ProtocolError(f"role must be 'tx' or 'rx', got {role!r}")
        self.connection = connection
        self.role = role
        self._recv_cursor = 0

    # -- sending --------------------------------------------------------------
    def sendall(self, nbytes: int, chunk: int = 65536):
        """Process: send ``nbytes`` in ``chunk``-sized writes."""
        self._require("tx")
        if nbytes <= 0:
            raise ProtocolError("sendall of a non-positive byte count")
        remaining = nbytes
        while remaining > 0:
            size = min(chunk, remaining)
            yield from self.connection.write(size)
            remaining -= size
        return nbytes

    # -- receiving --------------------------------------------------------------
    def recv(self, nbytes: int, poll_s: float = 1e-4):
        """Process: block until up to ``nbytes`` beyond what this socket
        has already consumed are available; returns the count consumed
        (like a blocking ``recv``, it returns as soon as *some* data is
        there, on the first ``poll_s`` tick after it arrives — see
        :meth:`~repro.tcp.receiver.TcpReceiver.when_delivered`)."""
        self._require("rx")
        if nbytes <= 0:
            raise ProtocolError("recv of a non-positive byte count")
        receiver = self.connection.receiver
        wake = receiver.when_delivered(self._recv_cursor + 1, poll_s)
        if wake is not None:
            yield wake
        available = receiver.bytes_delivered - self._recv_cursor
        consumed = min(available, nbytes)
        self._recv_cursor += consumed
        return consumed

    def recv_exactly(self, nbytes: int, poll_s: float = 1e-4):
        """Process: block until exactly ``nbytes`` more are consumed."""
        self._require("rx")
        remaining = nbytes
        while remaining > 0:
            got = yield from self.recv(remaining, poll_s=poll_s)
            remaining -= got
        return nbytes

    def _require(self, role: str) -> None:
        if self.role != role:
            raise ProtocolError(
                f"{'send' if role == 'tx' else 'recv'} on the "
                f"{self.role!r} end of the connection")


def connect(env: Environment, src_host, dst_host,
            **conn_kwargs) -> "tuple[SimSocket, SimSocket]":
    """Establish a connection; returns ``(tx_socket, rx_socket)``."""
    connection = TcpConnection(env, src_host, dst_host, **conn_kwargs)
    return SimSocket(connection, "tx"), SimSocket(connection, "rx")
