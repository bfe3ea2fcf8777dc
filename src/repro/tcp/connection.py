"""TCP connection: a sender and receiver pair wired over a topology.

:class:`TcpConnection` performs the (instantaneous) option negotiation —
MSS advertisement including the §3.5.1 receiver-estimate quirk, window
scaling — registers both endpoints with their hosts' receive dispatch,
and exposes the measurement surface the tools use.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from repro.errors import ProtocolError
from repro.oskernel.skbuff import SkBuff
from repro.sim.engine import Environment
from repro.tcp.mss import MtuProfile
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender

__all__ = ["TcpConnection", "steady_goodput_bps"]

_conn_ids = itertools.count(1)


class TcpConnection:
    """One established, unidirectional-data TCP connection.

    Data flows ``src_host -> dst_host``; ACKs flow back.  (The paper's
    bulk tests are unidirectional; bidirectional traffic is modelled as
    two connections.)

    Parameters
    ----------
    src_host, dst_host:
        :class:`~repro.hw.host.Host` endpoints (must each have a NIC
        wired into a common topology).
    src_nic, dst_nic:
        Specific adapters (default: each host's first adapter) — the
        dual-adapter bottleneck test targets specific NICs.
    mss_mismatch_quirk:
        Reproduce the receiver's too-large MSS estimate (§3.5.1).
    """

    def __init__(self, env: Environment, src_host, dst_host,
                 src_nic=None, dst_nic=None,
                 mss_mismatch_quirk: bool = True,
                 name: str = ""):
        self.env = env
        self.src_host = src_host
        self.dst_host = dst_host
        src_nic = src_nic or src_host.nic
        dst_nic = dst_nic or dst_host.nic
        self.conn_id = next(_conn_ids)
        self.name = name or f"conn{self.conn_id}"

        sender_profile = MtuProfile(mtu=src_host.config.mtu,
                                    timestamps=src_host.config.tcp_timestamps,
                                    mismatch_quirk=mss_mismatch_quirk)
        receiver_profile = MtuProfile(mtu=dst_host.config.mtu,
                                      timestamps=dst_host.config.tcp_timestamps,
                                      mismatch_quirk=mss_mismatch_quirk)
        # Negotiation: each side advertises mtu-40; the connection MSS is
        # the minimum of the two views.
        path_mtu = min(src_host.config.mtu, dst_host.config.mtu)
        effective_profile = MtuProfile(mtu=path_mtu,
                                       timestamps=src_host.config.tcp_timestamps,
                                       mismatch_quirk=mss_mismatch_quirk)

        self.receiver = TcpReceiver(
            env, dst_host, dst_nic, conn=self.conn_id,
            src_address=src_nic.address, profile=receiver_profile,
            peer_advertised_mss=effective_profile.advertised)
        self.sender = TcpSender(
            env, src_host, src_nic, conn=self.conn_id,
            dst_address=dst_nic.address, profile=effective_profile,
            initial_rwnd=self.receiver.window.current)
        dst_host.register_handler(self.conn_id, self._at_receiver)
        src_host.register_handler(self.conn_id, self._at_sender)

    # -- dispatch -----------------------------------------------------------------
    def _at_receiver(self, skb: SkBuff) -> None:
        if skb.kind == "data":
            self.receiver.on_data_frame(skb)
        else:
            raise ProtocolError(
                f"{self.name}: unexpected {skb.kind!r} frame at receiver")

    def _at_sender(self, skb: SkBuff) -> None:
        if skb.kind == "ack":
            self.sender.on_ack_frame(skb)
        else:
            raise ProtocolError(
                f"{self.name}: unexpected {skb.kind!r} frame at sender")

    # -- application-facing API -----------------------------------------------------
    def write(self, nbytes: int):
        """Process: send ``nbytes`` (blocks on socket buffer)."""
        return self.sender.write(nbytes)

    def send_stream(self, write_size: int, count: int):
        """Process: ``count`` back-to-back writes of ``write_size`` bytes
        (the NTTCP pattern), returning when the last write is queued."""
        if write_size <= 0 or count <= 0:
            raise ProtocolError("write_size and count must be positive")
        for _ in range(count):
            yield from self.write(write_size)

    def wait_delivered(self, total_bytes: int, poll_s: float = 1e-4):
        """Process: resolve when the receiving app has consumed
        ``total_bytes``, on the first ``poll_s`` tick after it has
        (see :meth:`TcpReceiver.when_delivered`)."""
        wake = self.receiver.when_delivered(total_bytes, poll_s)
        if wake is not None:
            yield wake

    # -- measurement -------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TcpConnection {self.name} {self.src_host.name}->"
                f"{self.dst_host.name} mss={self.sender.mss}>")


def steady_goodput_bps(env: Environment, conns: Sequence[TcpConnection],
                       write_bytes: int, warmup_s: float,
                       window_s: float) -> List[float]:
    """Each connection's steady-state goodput under a saturating writer.

    Starts one writer per connection (in ``conns`` order) that issues
    back-to-back ``write_bytes`` writes, runs ``env`` to ``warmup_s``,
    then measures the bytes each receiver delivers over the next
    ``window_s`` — the measurement window of the multi-flow probes and
    the WAN cross-check.
    """
    def writer(conn: TcpConnection):
        while True:
            yield from conn.write(write_bytes)

    for conn in conns:
        env.process(writer(conn), name=f"{conn.name}.src")
    env.run(until=warmup_s)
    start = [c.receiver.bytes_delivered for c in conns]
    t0 = env.now
    env.run(until=t0 + window_s)
    elapsed = env.now - t0
    return [(c.receiver.bytes_delivered - s) * 8.0 / elapsed
            for c, s in zip(conns, start)]
