"""TCP receiver endpoint (discrete-event).

Implements the receive half the paper dissects in §3.5.1: truesize-
charged socket buffering, the MSS-aligned advertised window with the
adv_win_scale reservation, delayed ACKs (every second segment, with the
Linux delayed-ACK timer as backstop), duplicate ACKs for out-of-order
arrivals, and window-update ACKs when the reader drains enough space.
"""

from __future__ import annotations

from collections import deque
from math import isfinite
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.oskernel.skbuff import SkBuff, ip_tcp_header_bytes
from repro.sim.engine import Environment, Event
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
        self._rx_backlog: Deque[SkBuff] = deque()
        self._rx_busy = False
        self._unacked_segments = 0
        self._delack_armed = False
        self._delack_deadline = 0.0
        self._delack_timer_set = False
        # readers blocked in when_delivered: (target, t0, poll_s, event)
        self._waiters: List[Tuple[int, float, float, Event]] = []
        # statistics
        self.duplicates = 0
        self.bytes_delivered = 0
        self.acks_sent = 0
        self.first_data_time: Optional[float] = None
        self.last_delivery_time: Optional[float] = None
        self._delivered_before_first = 0
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
    def on_data_frame(self, skb: SkBuff) -> None:
        """A data segment arrived (called from interrupt dispatch).

        Segments enter a per-connection queue drained by one processing
        loop — in-order TCP processing even on hosts whose CPU complex
        services several flows in parallel (Itanium-II)."""
        if self._rx_busy:
            self._rx_backlog.append(skb)
        else:
            # A tail hop before processing: the host's batch dispatch
            # calls the last frame's handler as its entry's last action
            # and runs the others nested, so their hops stay on the lane.
            self._rx_busy = True
            self.env.then(self._rx_begin, skb)

    # -- processing chain -------------------------------------------------------
    def _rx_begin(self, skb: SkBuff) -> None:
        host = self.host
        env = self.env
        end = host.cpu.charge(host.costs.rx_segment_s(skb.payload))
        if end <= env._now:
            self._rx_process(skb)
        else:
            env.schedule_call(end - env._now, self._rx_process, skb)

    def _rx_done(self) -> None:
        if self._rx_backlog:
            # A tail hop: every path into _rx_done (the ACK chain's
            # continuation, the end of _rx_process) calls it last.
            self.env.then(self._rx_begin, self._rx_backlog.popleft())
        else:
            self._rx_busy = False

    def _rx_process(self, skb: SkBuff) -> None:
        """Segment processing once its CPU charge has completed."""
        host = self.host
        if self._c_seg is not None:
            self._c_seg.inc()
        if self.first_data_time is None:
            self.first_data_time = self.env.now
            self._delivered_before_first = self.bytes_delivered
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
        # A tail hop before the CPU charge: this is always an entry of
        # its own (scheduled by _schedule_drain).
        self.env.then(self._drain_charge, skb)

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
        if self._waiters:
            self._wake_waiters()
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
            self._ack_begin(None)

    # -- readers waiting on delivery -----------------------------------------------
    def when_delivered(self, target: int,
                       poll_s: float) -> Optional[Event]:
        """An event that fires once ``bytes_delivered >= target``, or
        ``None`` when that already holds (the caller need not yield).

        The reader is woken on the first tick of the grid ``t0 + k *
        poll_s`` (``t0`` = now, ``k >= 1``, stepped by repeated float
        addition) after the delivery that meets its target: the instant
        a reader re-checking every ``poll_s`` would see it, without the
        per-tick events.  Tie rule: a tick that lands on
        the delivery instant counts as having polled first, so the wake
        goes to the next tick.  A ``poll_s`` that is not a positive
        finite number raises :class:`~repro.errors.ProtocolError`.
        """
        if not (poll_s > 0 and isfinite(poll_s)):
            raise ProtocolError(
                f"poll_s must be positive and finite: {poll_s!r}")
        if self.bytes_delivered >= target:
            return None
        event = self.env.event()
        self._waiters.append((target, self.env.now, poll_s, event))
        return event

    def _wake_waiters(self) -> None:
        now = self.env.now
        delivered = self.bytes_delivered
        waiting = []
        for waiter in self._waiters:
            target, t, poll_s, event = waiter
            if delivered < target:
                waiting.append(waiter)
                continue
            t += poll_s
            while t <= now:
                t += poll_s
            self.env.schedule_call_at(t, event.succeed)
        self._waiters = waiting

    # -- ACK generation ---------------------------------------------------------
    def _ack_begin(self, then: Optional[Callable[[], None]]) -> None:
        """Send an ACK: state resets at call time, the ACK itself is
        emitted when the generation CPU charge completes, then
        ``then()`` continues the caller's chain."""
        host = self.host
        self._unacked_segments = 0
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
        ack = SkBuff(payload=0,
                     headers=ip_tcp_header_bytes(host.config.tcp_timestamps),
                     kind="ack", ack=self.rcv_nxt, conn=self.conn,
                     meta={"dst": self.src_address, "win": win})
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
        self._delack_deadline = self.env._now + DELACK_TIMEOUT_S
        self._ensure_delack_timer()

    def _ensure_delack_timer(self) -> None:
        # Lazy timer, the idiom of TcpSender._ensure_rto_timer: an ACK
        # only disarms, and the next arming only moves the deadline
        # forward, so the one outstanding entry (never later than the
        # deadline) relays itself there instead of each arming pushing
        # a 40 ms entry the next ACK would orphan.  A relayed entry
        # takes its sequence number at the relay, not at the arming, so
        # it could only reorder against another entry due at that same
        # deadline instant; the goldens show none.
        if self._delack_timer_set:
            return
        self._delack_timer_set = True
        self.env.schedule_call_at(self._delack_deadline, self._on_delack)

    def _on_delack(self) -> None:
        self._delack_timer_set = False
        if not self._delack_armed:
            return
        if self.env._now < self._delack_deadline:
            # early fire from an earlier arming: relay to the live deadline
            self._ensure_delack_timer()
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
            # A tail hop before the ACK chain's state resets: the timer
            # fire is always an entry of its own.
            self.env.then(self._ack_begin, None)

    # -- reporting -------------------------------------------------------------
    def goodput_bps(self) -> float:
        """Delivered-payload rate between first arrival and last drain.

        Clearing ``first_data_time`` (as NTTCP does per run) starts a new
        window: the next arrival restamps it, and only bytes delivered
        from then on count."""
        if (self.first_data_time is None or self.last_delivery_time is None
                or self.last_delivery_time <= self.first_data_time):
            raise ProtocolError("no completed deliveries to report")
        span = self.last_delivery_time - self.first_data_time
        delivered = self.bytes_delivered - self._delivered_before_first
        return delivered * 8.0 / span
