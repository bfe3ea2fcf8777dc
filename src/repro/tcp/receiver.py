"""TCP receiver endpoint (discrete-event).

Implements the receive half the paper dissects in §3.5.1: truesize-
charged socket buffering, the MSS-aligned advertised window with the
adv_win_scale reservation, delayed ACKs (every second segment, with the
Linux delayed-ACK timer as backstop), duplicate ACKs for out-of-order
arrivals, and window-update ACKs when the reader drains enough space.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.errors import ProtocolError
from repro.oskernel.skbuff import SkBuff, ip_tcp_header_bytes
from repro.sim.engine import Environment
from repro.tcp.mss import MtuProfile
from repro.tcp.window import ReceiveWindow
from repro.telemetry.session import active_metrics
from repro.units import ms

__all__ = ["TcpReceiver", "DELACK_TIMEOUT_S"]

#: Linux 2.4 delayed-ACK timer (TCP_DELACK_MIN, HZ/25).
DELACK_TIMEOUT_S = ms(40)


class TcpReceiver:
    """One direction's receive state machine."""

    def __init__(self, env: Environment, host, nic, conn,
                 src_address: str, profile: MtuProfile,
                 peer_advertised_mss: int):
        self.env = env
        self.host = host
        self.nic = nic
        self.conn = conn
        self.src_address = src_address
        self.profile = profile
        self.align_mss = profile.alignment_mss(peer_advertised_mss)
        self.window = ReceiveWindow(
            rmem=host.config.tcp_rmem,
            align_mss=self.align_mss,
            window_scaling=host.config.window_scaling)
        self.rcv_nxt = 0
        self._ooo: Dict[int, SkBuff] = {}
        self._rx_backlog: Deque[Tuple[SkBuff, int]] = deque()
        self._rx_busy = False
        self._unacked_segments = 0
        self._delack_generation = 0
        self._delack_armed = False
        # statistics
        self.segments_received = 0
        self.duplicates = 0
        self.bytes_delivered = 0
        self.acks_sent = 0
        self.window_updates = 0
        self.first_data_time: Optional[float] = None
        self.last_delivery_time: Optional[float] = None
        # instrumentation
        self._conn_label = getattr(conn, "name", None) or str(conn)
        # Host-only labels — see the matching note in TcpSender: conn
        # ids are not stable across serial vs forked-worker execution.
        metrics = active_metrics()
        if metrics is not None:
            label = dict(host=host.name)
            self._c_seg = metrics.counter("tcp.rx.segments", **label)
            self._c_dup = metrics.counter("tcp.rx.dups", **label)
            self._c_ooo = metrics.counter("tcp.rx.ooo", **label)
            self._c_ack = metrics.counter("tcp.rx.acks", **label)
            self._c_bytes = metrics.counter("tcp.rx.bytes", **label)
            self._c_delack = metrics.counter("tcp.delack.fires", **label)
            self._g_rmem = metrics.gauge("tcp.rmem.used", **label)
        else:
            self._c_seg = self._c_dup = self._c_ooo = None
            self._c_ack = self._c_bytes = self._c_delack = None
            self._g_rmem = None

    # -- frame entry ---------------------------------------------------------
    def on_data_frame(self, skb: SkBuff, batch: int = 1) -> None:
        """A data segment arrived (called from interrupt dispatch).

        Segments enter a per-connection queue drained by one processing
        loop — in-order TCP processing even on hosts whose CPU complex
        services several flows in parallel (Itanium-II)."""
        if self._rx_busy:
            self._rx_backlog.append((skb, batch))
        else:
            # One zero-delay hop before processing; the goldens pin its
            # tie order.
            self._rx_busy = True
            self.env.schedule_call(0.0, self._rx_begin, skb, batch)

    # -- processing chain -------------------------------------------------------
    def _rx_begin(self, skb: SkBuff, batch: int) -> None:
        host = self.host
        env = self.env
        end = host.cpu.charge(host.costs.rx_segment_s(skb.payload, batch))
        if end <= env._now:
            self._rx_process(skb, batch)
        else:
            env.schedule_call(end - env._now, self._rx_process, skb, batch)

    def _rx_done(self) -> None:
        if self._rx_backlog:
            skb, batch = self._rx_backlog.popleft()
            # One zero-delay hop per segment even when the queue is
            # non-empty; the goldens pin the resulting tie order.
            self.env.schedule_call(0.0, self._rx_begin, skb, batch)
        else:
            self._rx_busy = False

    def _rx_process(self, skb: SkBuff, batch: int) -> None:
        """Segment processing once its CPU charge has completed."""
        host = self.host
        self.segments_received += 1
        if self._c_seg is not None:
            self._c_seg.inc()
        if self.first_data_time is None:
            self.first_data_time = self.env.now
        trace = host.trace
        out_of_order = False
        if skb.end_seq <= self.rcv_nxt:
            # pure duplicate (a spurious retransmission): drop, re-ack
            self.duplicates += 1
            if self._c_dup is not None:
                self._c_dup.inc()
            if trace.enabled:
                trace.post(self.env.now, "tcp.rx.dup", skb.ident,
                           seq=skb.seq, conn=self._conn_label)
            self._ack_begin(self._rx_done)
            return
        charged = host.costs.rx_truesize(skb)
        skb.meta["charged"] = charged
        if skb.seq == self.rcv_nxt:
            self.window.charge(charged)
            self._note_rmem(trace, skb, charged)
            self._schedule_drain(skb)
            self._advance(skb)
        elif skb.seq > self.rcv_nxt:
            if skb.seq not in self._ooo:
                self.window.charge(charged)
                self._note_rmem(trace, skb, charged)
                self._ooo[skb.seq] = skb
            if self._c_ooo is not None:
                self._c_ooo.inc()
            if trace.enabled:
                trace.post(self.env.now, "tcp.rx.ooo", skb.ident,
                           seq=skb.seq, expected=self.rcv_nxt,
                           conn=self._conn_label)
            out_of_order = True
        else:
            # partial overlap: treat as duplicate of the old part
            self.duplicates += 1
            if self._c_dup is not None:
                self._c_dup.inc()
            if trace.enabled:
                trace.post(self.env.now, "tcp.rx.dup", skb.ident,
                           seq=skb.seq, conn=self._conn_label)
            out_of_order = True
        self._unacked_segments += 1
        # Linux quickacks while the window is constrained (fewer than
        # four segments advertisable): a window-limited sender must not
        # also wait on the delayed-ACK clock.
        quickack = self.window.current < 4 * self.align_mss
        if out_of_order or quickack or self._unacked_segments >= 2:
            self._ack_begin(self._rx_done)
        else:
            self._arm_delack()
            self._rx_done()

    def _note_rmem(self, trace, skb: SkBuff, charged: int) -> None:
        if self._g_rmem is not None:
            self._g_rmem.set_max(self.window.queued_truesize)
        if trace.enabled:
            trace.post(self.env.now, "skbuff.rmem.charge", skb.ident,
                       truesize=charged,
                       rmem_used=self.window.queued_truesize)

    def _advance(self, skb: SkBuff) -> None:
        self.rcv_nxt = skb.end_seq
        # pull any now-contiguous out-of-order segments
        while self.rcv_nxt in self._ooo:
            nxt = self._ooo.pop(self.rcv_nxt)
            self._schedule_drain(nxt)
            self.rcv_nxt = nxt.end_seq
        self.window.rcv_nxt = self.rcv_nxt

    # -- application drain ---------------------------------------------------------
    def _schedule_drain(self, skb: SkBuff) -> None:
        self.env.schedule_call(self.host.costs.drain_latency_s,
                               self._start_drain, skb)

    def _start_drain(self, skb: SkBuff) -> None:
        # One zero-delay hop before the CPU charge; the goldens pin its
        # tie order.
        self.env.schedule_call(0.0, self._drain_charge, skb)

    def _drain_charge(self, skb: SkBuff) -> None:
        host = self.host
        env = self.env
        end = host.cpu.charge(host.costs.rx_wake_s())
        if end <= env._now:
            self._drain_done(skb)
        else:
            env.schedule_call(end - env._now, self._drain_done, skb)

    def _drain_done(self, skb: SkBuff) -> None:
        host = self.host
        self.window.uncharge(skb.meta.get("charged", skb.truesize))
        self.bytes_delivered += skb.payload
        if self._c_bytes is not None:
            self._c_bytes.inc(skb.payload)
        self.last_delivery_time = self.env.now
        trace = host.trace
        if trace.enabled:
            trace.post(self.env.now, "tcp.rx.deliver", skb.ident,
                       seq=skb.seq, len=skb.payload,
                       nbytes=skb.payload, conn=self._conn_label)
            trace.post(self.env.now, "copy.rx", skb.ident,
                       nbytes=skb.payload)
        # Window-update ACKs only when the window reopens substantially
        # (2 MSS, like tcp_new_space checks) — finer updates would turn
        # every drained segment into an ACK.
        if self.window.would_update(2):
            self.window_updates += 1
            self._ack_begin(None)

    # -- ACK generation ---------------------------------------------------------
    def _sack_blocks(self, limit: int = 4):
        """RFC 2018 blocks from the out-of-order queue (merged,
        most-recent-first capped at ``limit`` like real option space)."""
        if not self._ooo:
            return []
        edges = sorted((skb.seq, skb.end_seq) for skb in self._ooo.values())
        blocks = [list(edges[0])]
        for start, end in edges[1:]:
            if start <= blocks[-1][1]:
                blocks[-1][1] = max(blocks[-1][1], end)
            else:
                blocks.append([start, end])
        return [tuple(b) for b in blocks[-limit:]]

    def _ack_begin(self, then: Optional[Callable[[], None]]) -> None:
        """Send an ACK: state resets at call time, the ACK itself is
        emitted when the generation CPU charge completes, then
        ``then()`` continues the caller's chain."""
        host = self.host
        self._unacked_segments = 0
        self._delack_generation += 1
        self._delack_armed = False
        env = self.env
        end = host.cpu.charge(host.costs.rx_ack_gen_s())
        if end <= env._now:
            self._ack_emit(then)
        else:
            env.schedule_call(end - env._now, self._ack_emit, then)

    def _ack_emit(self, then: Optional[Callable[[], None]]) -> None:
        host = self.host
        win = self.window.advertise()
        meta = {"dst": self.src_address, "win": win}
        if host.config.sack and self._ooo:
            meta["sack"] = self._sack_blocks()
        ack = SkBuff(payload=0,
                     headers=ip_tcp_header_bytes(host.config.tcp_timestamps),
                     kind="ack", ack=self.rcv_nxt, conn=self.conn,
                     meta=meta)
        self.acks_sent += 1
        if self._c_ack is not None:
            self._c_ack.inc()
        self.nic.send(ack)
        trace = host.trace
        if trace.enabled:
            trace.post(self.env.now, "tcp.rx.ack", ack.ident,
                       ack=self.rcv_nxt, win=win, conn=self._conn_label)
        if then is not None:
            then()

    def _arm_delack(self) -> None:
        if self._delack_armed:
            return
        self._delack_armed = True
        generation = self._delack_generation
        self.env.schedule_call(DELACK_TIMEOUT_S, self._on_delack, generation)

    def _on_delack(self, generation: int) -> None:
        if generation != self._delack_generation:
            return
        self._delack_armed = False
        if self._unacked_segments > 0:
            if self._c_delack is not None:
                self._c_delack.inc()
            trace = self.host.trace
            if trace.enabled:
                trace.post(self.env.now, "tcp.delack.fire",
                           self._conn_label,
                           unacked=self._unacked_segments)
            # One zero-delay hop before the ACK chain's state resets;
            # the goldens pin its tie order.
            self.env.schedule_call(0.0, self._ack_begin, None)

    # -- reporting -------------------------------------------------------------
    def goodput_bps(self) -> float:
        """Delivered-payload rate between first arrival and last drain."""
        if (self.first_data_time is None or self.last_delivery_time is None
                or self.last_delivery_time <= self.first_data_time):
            raise ProtocolError("no completed deliveries to report")
        span = self.last_delivery_time - self.first_data_time
        return self.bytes_delivered * 8.0 / span
