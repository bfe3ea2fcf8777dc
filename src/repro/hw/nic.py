"""Network adapters: the Intel PRO/10GbE LR and a GbE client NIC.

The 10GbE adapter (Figure 1 of the paper) couples a DMA engine on the
PCI-X side with the MAC/PCS/SerDes/optics chain on the wire side and
offloads TCP/IP checksums.  The model reproduces the externally visible
timing:

* every frame crosses the host's PCI-X bus in MMRBC-sized bursts,
* the adapter adds a fixed internal traverse latency,
* received frames raise interrupts through a coalescing timer
  (the 5 µs delay the paper turns off to save 5 µs of latency).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.chaos.hooks import register_target as register_chaos_target
from repro.errors import LinkError, TopologyError
from repro.net.train import BacklogView, SegmentTrain
from repro.oskernel.skbuff import SkBuff
from repro.sim.engine import Environment
from repro.sim.monitor import CounterMonitor
from repro.telemetry.session import active_metrics
from repro.units import Gbps, us

__all__ = ["TenGigAdapter", "GigAdapter", "RX_RING_FRAMES"]

#: Receive descriptor ring depth (frames buffered on-board + in ring).
RX_RING_FRAMES = 1024


class TenGigAdapter:
    """Intel 82597EX-style server adapter bound to one host.

    Parameters
    ----------
    host:
        The owning :class:`~repro.hw.host.Host` (provides PCI-X bus,
        cost model, tuning config and the receive dispatch).
    address:
        Link-layer address used by switches for forwarding.
    """

    rate_bps = Gbps(10)

    def __init__(self, env: Environment, host, address: str,
                 name: str = "", own_bus: bool = False):
        self.env = env
        self.host = host
        self.address = address
        self.name = name or address
        self._egress = None
        if host.config.csa:
            # §3.5.3: the adapter hangs off the memory controller hub,
            # bypassing the PCI-X bus (and its MMRBC sensitivity).
            from repro.hw.csa import MchLink
            self.pcix = MchLink(env, name=f"{self.name}.mch",
                                trace=host.trace)
        else:
            self.pcix = host.new_pcix_bus() if own_bus else host.pcix
        cfg = host.config
        # Instrumentation: events ride the host's MAGNET ring; metric
        # series register into the ambient telemetry session (if any).
        self.trace = host.trace
        metrics = active_metrics()
        if metrics is not None:
            self._c_tx = metrics.counter("nic.tx.frames", nic=self.name)
            self._c_txdrop = metrics.counter("nic.tx.drops", nic=self.name)
            self._c_rx = metrics.counter("nic.rx.frames", nic=self.name)
            self._c_rxdrop = metrics.counter("nic.rx.drops", nic=self.name)
            self._c_irq = metrics.counter("nic.interrupts", nic=self.name)
            self._c_train = metrics.counter("nic.tx_train_frames",
                                            nic=self.name)
            self._h_batch = metrics.histogram("irq.batch", nic=self.name)
            self._h_train = metrics.histogram("nic.train", nic=self.name)
        else:
            self._c_tx = self._c_txdrop = self._c_rx = None
            self._c_rxdrop = self._c_irq = None
            self._c_train = self._h_batch = self._h_train = None
        # Train-batched transmit engine: a plain backlog deque drained
        # by a callback chain (see _tx_service).
        self._backlog: Deque[SkBuff] = deque()
        # frames a full queue holds back, with their ``done`` callbacks
        self._space_waiters: Deque[
            Tuple[Callable[[SkBuff], None], SkBuff]] = deque()
        self._tx_busy = False
        self._tx_kick_pending = False
        self._train: Optional[SegmentTrain] = None
        self.txq = BacklogView(self._backlog, cfg.txqueuelen)
        self.tx_drops = CounterMonitor(f"{self.name}.txdrop")
        self.rx_drops = CounterMonitor(f"{self.name}.rxdrop")
        self.tx_frames = CounterMonitor(f"{self.name}.tx")
        self.rx_frames = CounterMonitor(f"{self.name}.rx")
        self.interrupts = CounterMonitor(f"{self.name}.irq")
        self.tx_trains = CounterMonitor(f"{self.name}.trains")
        self.tx_train_frames = CounterMonitor(f"{self.name}.trainfr")
        self._rx_pending: List[SkBuff] = []
        self._irq_timer_armed = False
        from repro.oskernel.interrupts import InterruptModerator
        self.moderator = InterruptModerator(
            delay_s=cfg.interrupt_coalescing_us * 1e-6)
        register_chaos_target("nic", self.name, self)
        host.register_adapter(self)

    # -- wiring ---------------------------------------------------------------
    def set_egress(self, egress) -> None:
        """Attach the transmit wire (an EthernetLink or PosCircuit)."""
        self._egress = egress

    @property
    def egress(self):
        """The attached transmit wire."""
        return self._egress

    # -- transmit ----------------------------------------------------------------
    def send(self, skb: SkBuff) -> bool:
        """Queue a frame for transmission (non-blocking).

        Returns False (and counts a drop) when the device transmit queue
        (``txqueuelen``) is full — the local congestion signal the
        paper's WAN recipe avoids by raising txqueuelen to 10000.
        Stack-generated frames (ACKs, pktgen) use this path.
        """
        if self._egress is None:
            raise TopologyError(f"{self.name}: egress not connected")
        if self.txq.level >= self.txq.capacity:
            self.tx_drops.add()
            if self._c_txdrop is not None:
                self._c_txdrop.inc()
            trace = self.trace
            if trace.enabled:
                trace.post(self.env.now, "nic.tx.drop", skb.ident,
                           qlen=self.txq.level)
            return False
        self._backlog.append(skb)
        self._tx_kick()
        trace = self.trace
        if trace.enabled:
            trace.post(self.env.now, "nic.tx.queue", skb.ident,
                       kind=skb.kind, qlen=self.txq.level)
        return True

    def enqueue(self, skb: SkBuff,
                done: Callable[[SkBuff], None]) -> None:
        """Blocking enqueue: ``done(skb)`` runs once the qdisc accepts
        the frame.  TCP data uses this path — a full device queue applies
        backpressure (the qdisc requeues) rather than dropping, which is
        how ``dev_queue_xmit`` behaves for a socket-owned skb.

        ``done`` runs as a zero-delay entry on the lane, ahead of the
        engine's first service step (the goldens pin this order).  When
        that entry would be the very next one dispatched (see
        :meth:`~repro.sim.engine.Environment.then_runs_direct`), ``done``
        runs directly instead and the engine's start becomes a tail hop,
        so the caller must make this call the last action of its entry.
        """
        if self._egress is None:
            raise TopologyError(f"{self.name}: egress not connected")
        trace = self.trace
        if trace.enabled:
            trace.post(self.env.now, "nic.tx.queue", skb.ident,
                       kind=skb.kind, qlen=self.txq.level)
        if len(self._backlog) >= self.txq.capacity:
            self._space_waiters.append((done, skb))
            return
        self._backlog.append(skb)
        env = self.env
        if env.then_runs_direct():
            env.call_nested(done, skb)
            self._tx_kick(tail=True)
        else:
            env.schedule_call(0.0, done, skb)
            self._tx_kick()

    # -- transmit engine ----------------------------------------------------------
    def _tx_kick(self, tail: bool = False) -> None:
        """Arrange for the engine to start servicing the backlog.

        The start is one zero-delay entry on the lane.  Only a ``tail``
        kick, the last action of its entry, may run it directly through
        ``then``: ``send`` traces after its kick, so it is not a tail.
        """
        if self._tx_busy or self._tx_kick_pending or not self._backlog:
            return
        self._tx_kick_pending = True
        if tail:
            self.env.then(self._tx_begin)
        else:
            self.env.schedule_call(0.0, self._tx_begin)

    def _tx_begin(self) -> None:
        self._tx_kick_pending = False
        if self._tx_busy or not self._backlog:
            return
        self._tx_busy = True
        self._train = SegmentTrain(self.env._now)
        self._tx_service()

    def _tx_service(self) -> None:
        """DMA the backlog head; chain the wire stage off its completion."""
        skb = self._backlog.popleft()
        env = self.env
        if self._space_waiters:
            done, waiting = self._space_waiters.popleft()
            self._backlog.append(waiting)
            env.schedule_call(0.0, done, waiting)
        mmrbc = self.host.config.mmrbc
        _, end = self.pcix.charge_transfer(skb.frame_bytes, mmrbc)
        # Keep this float arithmetic exactly: the DMA completes at
        # now + (end - now), the traverse at that instant plus the
        # traverse cost.  The goldens pin the rounding.
        dma_fire = env._now + (end - env._now)
        env.schedule_call_at(dma_fire + self.host.costs.nic_traverse_s,
                             self._tx_dma_done, skb, mmrbc)

    def _tx_dma_done(self, skb: SkBuff, mmrbc: int) -> None:
        self.pcix.account(skb.frame_bytes, mmrbc)
        self._egress.transmit(skb)
        self.tx_frames.add()
        if self._c_tx is not None:
            self._c_tx.inc()
        trace = self.trace
        if trace.enabled:
            trace.post(self.env.now, "nic.tx.wire", skb.ident,
                       nbytes=skb.frame_bytes)
        self._train.add()
        if self._backlog:
            self._tx_service()
        else:
            self._tx_busy = False
            self._close_train()

    def _close_train(self) -> None:
        train = self._train
        self._train = None
        if train is None or train.frames == 0:
            return
        train.close(self.env._now)
        self.tx_trains.add()
        self.tx_train_frames.add(train.frames)
        if self._c_train is not None:
            self._c_train.inc(train.frames)
            self._h_train.observe(train.frames)
        trace = self.trace
        if trace.enabled:
            trace.post(self.env.now, "nic.tx.train", None,
                       frames=train.frames)

    def mean_train_size(self) -> float:
        """Average frames per closed transmit train (0 when none)."""
        if self.tx_trains.events == 0:
            return 0.0
        return self.tx_train_frames.total / self.tx_trains.events

    # -- receive -------------------------------------------------------------------
    def receive_frame(self, skb: SkBuff) -> None:
        """Wire-side delivery (called by the attached link)."""
        if len(self._rx_pending) >= RX_RING_FRAMES:
            self.rx_drops.add()
            if self._c_rxdrop is not None:
                self._c_rxdrop.inc()
            trace = self.trace
            if trace.enabled:
                trace.post(self.env.now, "nic.rx.drop", skb.ident,
                           ring=len(self._rx_pending))
            return
        self.rx_frames.add()
        if self._c_rx is not None:
            self._c_rx.inc()
        trace = self.trace
        if trace.enabled:
            trace.post(self.env.now, "nic.rx.frame", skb.ident,
                       nbytes=skb.frame_bytes)
        # A tail hop: every link delivery calls this as its entry's last
        # action.  A duplicating chaos tap delivers a clone after it; the
        # clone's delivery touches neither the bus nor the entry the
        # direct charge schedules, so the order is unchanged.
        self.env.then(self._rx_charge, skb)

    def _rx_charge(self, skb: SkBuff) -> None:
        env = self.env
        mmrbc = self.host.config.mmrbc
        _, end = self.pcix.charge_transfer(skb.frame_bytes, mmrbc)
        costs = self.host.costs
        # Keep this float chain exactly: DMA completion, then one delay
        # of (traverse + pad).  The goldens pin the rounding.
        dma_fire = env._now + (end - env._now)
        env.schedule_call_at(
            dma_fire + (costs.nic_traverse_s + costs.rx_fixed_pad_s),
            self._rx_posted, skb, mmrbc)

    def _rx_posted(self, skb: SkBuff, mmrbc: int) -> None:
        self.pcix.account(skb.frame_bytes, mmrbc)
        trace = self.trace
        if trace.enabled:
            trace.post(self.env.now, "nic.rx.dma", skb.ident,
                       nbytes=skb.frame_bytes)
        self._rx_pending.append(skb)
        self.moderator.note_arrival()
        self._arm_interrupt()

    def _arm_interrupt(self) -> None:
        coalesce = self.moderator.delay_s
        if coalesce <= 0:
            self._fire_interrupt()
            return
        if not self._irq_timer_armed:
            self._irq_timer_armed = True
            trace = self.trace
            if trace.enabled:
                trace.post(self.env.now, "irq.coalesce.arm", None,
                           delay_us=coalesce * 1e6)
            self.env.schedule_call(coalesce, self._on_irq_timer)

    def _on_irq_timer(self) -> None:
        self._irq_timer_armed = False
        self._fire_interrupt()

    def _fire_interrupt(self) -> None:
        if not self._rx_pending:
            return
        batch, self._rx_pending = self._rx_pending, []
        self.interrupts.add()
        if self._c_irq is not None:
            self._c_irq.inc()
            self._h_batch.observe(len(batch))
        trace = self.trace
        if trace.enabled:
            trace.post(self.env.now, "irq.coalesce.fire", None,
                       batch=len(batch))
        self.host.deliver_rx(self, batch)


class GigAdapter(TenGigAdapter):
    """Commodity GbE NIC for the multi-flow aggregation clients."""

    rate_bps = Gbps(1)
