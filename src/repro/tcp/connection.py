"""TCP connection: a sender and receiver pair wired over a topology.

:class:`TcpConnection` performs the (instantaneous) option negotiation —
MSS advertisement including the §3.5.1 receiver-estimate quirk, window
scaling — registers both endpoints with their hosts' receive dispatch,
and exposes the measurement surface the tools use.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.errors import ProtocolError
from repro.oskernel.skbuff import SkBuff
from repro.sim.engine import Environment
from repro.tcp.mss import MtuProfile
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender

__all__ = ["TcpConnection"]

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
    def _at_receiver(self, skb: SkBuff, batch: int) -> None:
        if skb.kind == "data":
            self.receiver.on_data_frame(skb, batch)
        elif skb.kind == "syn":
            self.env.process(self._answer_syn(skb),
                             name=f"{self.name}.synack")
        else:
            raise ProtocolError(
                f"{self.name}: unexpected {skb.kind!r} frame at receiver")

    def _at_sender(self, skb: SkBuff, batch: int) -> None:
        if skb.kind == "ack":
            self.sender.on_ack_frame(skb, batch)
        elif skb.kind == "synack":
            ev = self._handshake_done
            if ev is not None and not ev.triggered:
                ev.succeed(self.env.now)
        else:
            raise ProtocolError(
                f"{self.name}: unexpected {skb.kind!r} frame at sender")

    # -- connection establishment ---------------------------------------------------
    _handshake_done = None

    def handshake(self):
        """Process: simulate the three-way handshake over the wire and
        return the connect latency in seconds (SYN out, SYN/ACK back —
        1 RTT as the application observes it; the final ACK piggybacks
        on the first data segment).

        Option negotiation itself (MSS, wscale) is still performed at
        construction; this models the *timing*, which matters on the
        180 ms WAN path (§4) far more than in the LAN.
        """
        env = self.env
        src, dst = self.src_host, self.dst_host
        start = env.now
        self._handshake_done = env.event()
        yield from src.cpu_work(src.costs.tx_syscall_s()
                                + src.costs.tx_segment_s(0))
        syn = SkBuff(payload=0, headers=60, kind="syn", conn=self.conn_id,
                     meta={"dst": self.dst_host.nic.address})
        self.sender.nic.send(syn)
        yield self._handshake_done
        return env.now - start

    def _answer_syn(self, skb: SkBuff):
        dst = self.dst_host
        yield from dst.cpu_work(dst.costs.rx_segment_s(0)
                                + dst.costs.rx_ack_gen_s())
        synack = SkBuff(payload=0, headers=60, kind="synack",
                        conn=self.conn_id,
                        meta={"dst": self.src_host.nic.address,
                              "win": self.receiver.window.current})
        self.receiver.nic.send(synack)

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
    @property
    def mss(self) -> int:
        """Effective segment payload size."""
        return self.sender.mss

    def goodput_bps(self) -> float:
        """Application-level throughput at the receiver."""
        return self.receiver.goodput_bps()

    def retransmission_rate(self) -> float:
        """Retransmitted fraction of all data segments sent."""
        total = self.sender.segments_sent + self.sender.retransmitted
        if total == 0:
            return 0.0
        return self.sender.retransmitted / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TcpConnection {self.name} {self.src_host.name}->"
                f"{self.dst_host.name} mss={self.mss}>")
