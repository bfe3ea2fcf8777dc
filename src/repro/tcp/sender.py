"""TCP sender endpoint (discrete-event).

Implements the transmit half of the paper's stack: write() syscalls that
block on ``tcp_wmem`` (charged in truesize, like Linux), segmentation at
the effective MSS (writes are flushed, not coalesced — the NTTCP/ttcp
pattern), a packet-counted Reno congestion window, byte-counted receive
window enforcement, RTT estimation, fast retransmit and RTO recovery.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Optional

from repro.errors import ProtocolError
from repro.oskernel.skbuff import SkBuff
from repro.sim.engine import Environment, Event
from repro.tcp.congestion import RenoCongestion
from repro.tcp.mss import MtuProfile
from repro.telemetry.session import active_metrics
from repro.units import ms

__all__ = ["TcpSender", "MIN_RTO_S"]

#: Linux 2.4 minimum retransmission timeout (HZ/5).
MIN_RTO_S = ms(200)


class TcpSender:
    """One direction's transmit state machine.

    Driven by application processes calling :meth:`write` and by the
    owning :class:`~repro.tcp.connection.TcpConnection` feeding ACKs into
    :meth:`on_ack_frame`.
    """

    def __init__(self, env: Environment, host, nic, conn,
                 dst_address: str, profile: MtuProfile,
                 initial_rwnd: int):
        self.env = env
        self.host = host
        self.nic = nic
        self.conn = conn
        self.dst_address = dst_address
        self.profile = profile
        self.mss = profile.effective_mss
        self.headers = profile.mtu - profile.effective_mss  # IP+TCP+opts
        self.wmem = host.config.tcp_wmem
        self.cwnd = RenoCongestion(self.mss)
        self.rwnd_bytes = initial_rwnd
        # sequence state
        self.snd_una = 0
        self.snd_nxt = 0          # highest sequence handed to the NIC
        self.queued_seq = 0       # highest sequence accepted from the app
        self.sendq: Deque[SkBuff] = deque()
        self.inflight: "OrderedDict[int, SkBuff]" = OrderedDict()
        self.wmem_used = 0
        self._writer_waits: Deque[Event] = deque()
        # True while the pump waits for a write or an ACK to kick it
        self._pump_parked = True
        self._train_seq = 0       # id of the current back-to-back burst
        self.recover_point = 0  # NewReno: highest seq sent when loss seen
        # RTT estimation / RTO
        self.srtt_s: Optional[float] = None
        self.rttvar_s = 0.0
        self.rto_s = MIN_RTO_S * 5
        self._rto_armed = False
        self._rto_deadline = 0.0
        self._rto_timer_at: Optional[float] = None
        # statistics
        self.segments_sent = 0
        self.retransmitted = 0
        self.acks_received = 0
        self.first_send_time: Optional[float] = None
        self.last_ack_time: Optional[float] = None
        self.closed = False
        # instrumentation
        self._conn_label = getattr(conn, "name", None) or str(conn)
        self._last_cwnd = (0, 0.0)
        # Metric labels use the host only: connection ids are assigned
        # by a process-global counter, so per-conn labels would differ
        # between serial and forked-worker runs and break the
        # serial == parallel merged-metrics guarantee.  Per-connection
        # series live in the trace/timeline instead.
        metrics = active_metrics()
        if metrics is not None:
            label = dict(host=host.name)
            self._c_seg = metrics.counter("tcp.tx.segments", **label)
            self._c_rtx = metrics.counter("tcp.tx.retransmits", **label)
            self._c_blk = metrics.counter("tcp.tx.blocks", **label)
            self._c_rto = metrics.counter("tcp.rto.fires", **label)
            self._c_frtx = metrics.counter("tcp.fastrtx", **label)
            self._g_cwnd = metrics.gauge("tcp.cwnd.segments", **label)
            self._g_wmem = metrics.gauge("tcp.wmem.used", **label)
        else:
            self._c_seg = self._c_rtx = self._c_blk = None
            self._c_rto = self._c_frtx = None
            self._g_cwnd = self._g_wmem = None

    # -- application interface --------------------------------------------------
    def write(self, nbytes: int):
        """Process: queue ``nbytes`` of application data (blocking on
        wmem).  Segments never span write boundaries."""
        if nbytes <= 0:
            raise ProtocolError(f"write of {nbytes} bytes")
        yield from self.host.cpu_work(self.host.costs.tx_syscall_s())
        trace = self.host.trace
        if trace.enabled:
            trace.post(self.env.now, "tcp.tx.write", self._conn_label,
                       nbytes=nbytes)
            trace.post(self.env.now, "copy.tx", self._conn_label,
                       nbytes=nbytes)
        offset = 0
        while offset < nbytes:
            size = min(self.mss, nbytes - offset)
            skb = SkBuff(payload=size, headers=self.headers,
                         kind="data", seq=self.queued_seq,
                         end_seq=self.queued_seq + size, conn=self.conn,
                         meta={"dst": self.dst_address})
            while self.wmem_used + skb.truesize > self.wmem:
                if self._c_blk is not None:
                    self._c_blk.inc()
                if trace.enabled:
                    trace.post(self.env.now, "tcp.tx.block",
                               self._conn_label, wmem_used=self.wmem_used)
                ev = self.env.event()
                self._writer_waits.append(ev)
                yield ev
            self.wmem_used += skb.truesize
            if self._g_wmem is not None:
                self._g_wmem.set_max(self.wmem_used)
            if trace.enabled:
                trace.post(self.env.now, "skbuff.wmem.charge", skb.ident,
                           truesize=skb.truesize, wmem_used=self.wmem_used)
            self.queued_seq += size
            self.sendq.append(skb)
            offset += size
            self._kick_pump()

    @property
    def bytes_in_flight(self) -> int:
        """Unacknowledged bytes on the wire."""
        return self.snd_nxt - self.snd_una

    # -- transmit pump -----------------------------------------------------------
    def _can_send(self) -> bool:
        if not self.sendq:
            return False
        if len(self.inflight) >= self.cwnd.cwnd_segments:
            return False
        head = self.sendq[0]
        return self.bytes_in_flight + head.payload <= self.rwnd_bytes

    def _kick_pump(self, tail: bool = False) -> None:
        """Wake a parked pump with a zero-delay hop.  Only a ``tail``
        kick, the last action of its entry (the ACK chain's), may run
        it directly through ``then``: ``write`` keeps queueing after
        its kick, so that one waits on the lane."""
        if not self._pump_parked:
            return
        self._pump_parked = False
        if tail:
            self.env.then(self._pump_wake)
        else:
            self.env.schedule_call(0.0, self._pump_wake)

    def _pump_wake(self) -> None:
        if self._can_send():
            # Every blocked->sending transition opens a new burst;
            # segments pumped back-to-back share the train id.
            self._train_seq += 1
            self._pump_next()
        else:
            self._pump_parked = True

    def _pump_next(self) -> None:
        """Take the send-queue head and charge its transmit CPU cost; the
        chain goes on in :meth:`_pump_sent` when the charge completes."""
        skb = self.sendq.popleft()
        skb.meta["train"] = self._train_seq
        self.inflight[skb.seq] = skb
        self.snd_nxt = max(self.snd_nxt, skb.end_seq)
        self._charge_segment(skb, self._pump_sent)

    def _charge_segment(self, skb: SkBuff,
                        sent: Callable[[SkBuff], None]) -> None:
        # Keep the send instant as now + (end - now), not end: the
        # goldens pin this rounding.
        env = self.env
        end = self.host.cpu.charge(self.host.costs.tx_segment_s(skb.payload))
        env.schedule_call(end - env._now, sent, skb)

    def _pump_sent(self, skb: SkBuff) -> None:
        env = self.env
        skb.sent_at = env._now
        if self.first_send_time is None:
            self.first_send_time = env._now
        self.segments_sent += 1
        if self._c_seg is not None:
            self._c_seg.inc()
        # The entry's last action: enqueue may run the callback directly.
        self.nic.enqueue(skb, self._pump_queued)

    def _pump_queued(self, skb: SkBuff) -> None:
        """The NIC accepted ``skb``: trace it, then pump the next segment
        or park until an ACK or a write kicks the pump."""
        trace = self.host.trace
        if trace.enabled:
            trace.post(self.env.now, "tcp.tx.segment", skb.ident,
                       seq=skb.seq, len=skb.payload,
                       conn=self._conn_label)
        self._note_cwnd()
        self._arm_rto()
        if self._can_send():
            self._pump_next()
        else:
            self._pump_parked = True

    def _note_cwnd(self) -> None:
        """Record congestion-window changes (trace point + gauge)."""
        state = (self.cwnd.cwnd_segments, self.cwnd.ssthresh)
        if state == self._last_cwnd:
            return
        self._last_cwnd = state
        if self._g_cwnd is not None:
            self._g_cwnd.set_max(state[0])
        trace = self.host.trace
        if trace.enabled:
            ssthresh = state[1]
            trace.post(self.env.now, "tcp.cwnd.update", self._conn_label,
                       conn=self._conn_label, cwnd=state[0],
                       ssthresh=(-1 if ssthresh == float("inf")
                                 else ssthresh),
                       phase=("recovery" if self.cwnd.in_recovery
                              else "slow-start" if self.cwnd.in_slow_start
                              else "avoidance"))

    # -- ACK path ---------------------------------------------------------------
    def on_ack_frame(self, skb: SkBuff) -> None:
        """An ACK arrived at this host (called from interrupt dispatch)."""
        # A tail hop (the host's batch dispatch runs every frame but
        # the last nested), then an arithmetic CPU charge chained into
        # the ACK logic.
        self.env.then(self._ack_charge, skb)

    def _ack_charge(self, skb: SkBuff) -> None:
        env = self.env
        end = self.host.cpu.charge(self.host.costs.tx_ack_rx_s())
        if end <= env._now:
            self._ack_done(skb)
        else:
            env.schedule_call(end - env._now, self._ack_done, skb)

    def _ack_done(self, skb: SkBuff) -> None:
        self.acks_received += 1
        new_window = skb.meta.get("win", self.rwnd_bytes)
        window_changed = new_window != self.rwnd_bytes
        self.rwnd_bytes = new_window
        ack = skb.ack
        if ack > self.snd_una:
            self._advance_una(ack)
        elif (ack == self.snd_una and self.inflight
              and not window_changed and skb.payload == 0):
            if self.cwnd.on_dupack():
                self.recover_point = self.snd_nxt
                if self._c_frtx is not None:
                    self._c_frtx.inc()
                trace = self.host.trace
                if trace.enabled:
                    trace.post(self.env.now, "tcp.fastrtx",
                               self._conn_label, una=self.snd_una)
                self._retransmit_head()
        self._note_cwnd()
        self._kick_pump(tail=True)

    def _advance_una(self, ack: int) -> None:
        self.snd_una = ack
        self.last_ack_time = self.env.now
        acked_segments = 0
        freed = 0
        while self.inflight:
            seq, head = next(iter(self.inflight.items()))
            if head.end_seq > ack:
                break
            self.inflight.popitem(last=False)
            acked_segments += 1
            freed += head.truesize
            if not head.meta.get("retransmit") and head.sent_at > 0:
                self._update_rtt(self.env.now - head.sent_at)
        self.cwnd.on_ack(acked_segments)
        if self.cwnd.in_recovery:
            if ack >= self.recover_point:
                self.cwnd.exit_recovery()
            elif self.inflight:
                # NewReno partial ACK: the next hole is also lost
                self._retransmit_head()
        if freed:
            self.wmem_used -= freed
            while self._writer_waits:
                self._writer_waits.popleft().succeed()
        if self.inflight or self.sendq:
            self._arm_rto(force=True)
        else:
            self._rto_armed = False

    # -- loss recovery ------------------------------------------------------------
    def _retransmit_head(self) -> None:
        if not self.inflight:
            return
        head = next(iter(self.inflight.values()))
        clone = head.copy_for_retransmit()
        clone.meta["dst"] = self.dst_address
        self.retransmitted += 1
        # A zero-delay entry, not a direct charge: every caller keeps
        # working after this call, and its work comes first.
        self.env.schedule_call(0.0, self._charge_segment, clone,
                               self._rexmit_sent)

    def _rexmit_sent(self, skb: SkBuff) -> None:
        skb.sent_at = self.env._now
        if self._c_rtx is not None:
            self._c_rtx.inc()
        self.nic.enqueue(skb, self._rexmit_queued)

    def _rexmit_queued(self, skb: SkBuff) -> None:
        trace = self.host.trace
        if trace.enabled:
            trace.post(self.env.now, "tcp.tx.retransmit", skb.ident,
                       seq=skb.seq, len=skb.payload, conn=self._conn_label)

    def _update_rtt(self, sample_s: float) -> None:
        if self.srtt_s is None:
            self.srtt_s = sample_s
            self.rttvar_s = sample_s / 2.0
        else:
            delta = sample_s - self.srtt_s
            self.srtt_s += delta / 8.0
            self.rttvar_s += (abs(delta) - self.rttvar_s) / 4.0
        self.rto_s = max(MIN_RTO_S, self.srtt_s + 4.0 * self.rttvar_s)

    def _arm_rto(self, force: bool = False) -> None:
        if self._rto_armed and not force:
            return
        self._rto_armed = True
        self._rto_deadline = self.env._now + self.rto_s
        self._ensure_rto_timer()

    def _ensure_rto_timer(self) -> None:
        # Lazy timer: re-arming on every ACK only moves ``_rto_deadline``
        # forward; one outstanding event at or before the deadline
        # relays itself there instead of pushing a fresh 200 ms-out
        # event per ACK that a busy flow would immediately orphan.
        if (self._rto_timer_at is not None
                and self._rto_timer_at <= self._rto_deadline):
            return
        self._rto_timer_at = self._rto_deadline
        self.env.schedule_call_at(self._rto_deadline, self._on_rto_timer,
                                  self._rto_deadline)

    def _on_rto_timer(self, timer_at: float) -> None:
        if timer_at == self._rto_timer_at:
            self._rto_timer_at = None
        if not self._rto_armed or self.closed:
            return
        if self.env._now < self._rto_deadline:
            # stale early timer: relay to the live deadline
            self._ensure_rto_timer()
            return
        if not self.inflight:
            self._rto_armed = False
            return
        self.cwnd.on_timeout()
        if self._c_rto is not None:
            self._c_rto.inc()
        trace = self.host.trace
        if trace.enabled:
            trace.post(self.env.now, "tcp.rto.fire", self._conn_label,
                       una=self.snd_una, rto_s=self.rto_s)
        self.recover_point = self.snd_nxt
        self.rto_s = min(self.rto_s * 2.0, 60.0)
        self._note_cwnd()
        self._retransmit_head()
        self._arm_rto(force=True)
