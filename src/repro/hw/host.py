"""Host: one complete end system (CPU + memory + PCI-X + adapters + kernel).

A :class:`Host` assembles the hardware models around a
:class:`~repro.hw.calibration.CostModel` and provides the two services
protocol endpoints need:

* ``cpu_work`` — serialized CPU occupancy, and
* packet demultiplexing — adapters call :meth:`deliver_rx` from interrupt
  context; the host charges the interrupt cost and dispatches each frame
  to the protocol handler registered for its connection.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.config import TuningConfig
from repro.errors import TopologyError
from repro.hw.calibration import Calibration, CostModel, DEFAULT_CALIBRATION
from repro.hw.cpu import CpuComplex
from repro.hw.pcix import PciXBus
from repro.hw.presets import HostSpec
from repro.oskernel.skbuff import SkBuff
from repro.sim.engine import Environment
from repro.sim.trace import TraceBuffer
from repro.telemetry.session import active_metrics, register_trace

__all__ = ["Host"]

RxHandler = Callable[[SkBuff], None]


class Host:
    """One end system.

    Parameters
    ----------
    spec:
        Hardware platform (:data:`~repro.hw.presets.PE2650` etc.).
    config:
        Tuning state (:class:`~repro.config.TuningConfig`).
    """

    def __init__(self, env: Environment, spec: HostSpec,
                 config: TuningConfig, name: str = "",
                 calibration: Calibration = DEFAULT_CALIBRATION):
        self.env = env
        self.spec = spec
        self.config = config
        self.name = name or spec.name
        self.costs = CostModel(spec, config, calibration)
        self.cpu = CpuComplex(env, spec, name=f"{self.name}.cpu")
        # One trace ring per host, shared by its whole stack (NIC, bus,
        # TCP endpoints) — the simulated MAGNET ring.
        self.trace = TraceBuffer(enabled=False)
        register_trace(self.name, self.trace)
        self.pcix = PciXBus(env, spec.pcix_mhz,
                            burst_overhead_s=spec.pcix_burst_overhead_s,
                            name=f"{self.name}.pcix", trace=self.trace)
        self._extra_buses: List[PciXBus] = []
        metrics = active_metrics()
        self._c_rx_dispatch = (
            metrics.counter("host.rx.dispatch", host=self.name)
            if metrics is not None else None)
        self.adapters: List[Any] = []
        self._handlers: Dict[Any, RxHandler] = {}
        self._default_handler: Optional[RxHandler] = None

    # -- construction ---------------------------------------------------------
    def new_pcix_bus(self) -> PciXBus:
        """An independent PCI-X segment (the paper's dual-adapter test
        put each adapter on its own bus)."""
        bus = PciXBus(self.env, self.spec.pcix_mhz,
                      burst_overhead_s=self.spec.pcix_burst_overhead_s,
                      name=f"{self.name}.pcix{len(self._extra_buses) + 1}",
                      trace=self.trace)
        self._extra_buses.append(bus)
        return bus

    def register_adapter(self, adapter: Any) -> None:
        """Called by adapters as they bind to this host."""
        self.adapters.append(adapter)

    @property
    def nic(self) -> Any:
        """The first (usually only) adapter."""
        if not self.adapters:
            raise TopologyError(f"{self.name}: no adapter installed")
        return self.adapters[0]

    # -- protocol plumbing --------------------------------------------------------
    def register_handler(self, conn: Any, handler: RxHandler) -> None:
        """Dispatch frames whose ``skb.conn == conn`` to ``handler``."""
        self._handlers[conn] = handler

    def set_default_handler(self, handler: RxHandler) -> None:
        """Fallback for frames with no registered connection."""
        self._default_handler = handler

    def cpu_work(self, cost_s: float):
        """Process helper: occupy this host's CPU for ``cost_s``."""
        return self.cpu.run(cost_s)

    # -- receive dispatch -----------------------------------------------------------
    def deliver_rx(self, adapter: Any, batch: List[SkBuff]) -> None:
        """Interrupt-context delivery of a batch of frames."""
        # A tail hop (the adapter's interrupt fire calls this last, as
        # the last action of its entry), then an arithmetic CPU charge
        # chained into the dispatch loop.
        self.env.then(self._rx_charge, batch)

    def _rx_charge(self, batch: List[SkBuff]) -> None:
        # One interrupt services the whole batch; per-frame protocol
        # costs are charged by the handlers themselves.
        env = self.env
        end = self.cpu.charge(self.costs.rx_irq_s())
        if end <= env._now:
            self._dispatch_batch(batch)
        else:
            env.schedule_call(end - env._now, self._dispatch_batch, batch)

    def _dispatch_batch(self, batch: List[SkBuff]) -> None:
        n = len(batch)
        counter = self._c_rx_dispatch
        if counter is not None:
            counter.inc(n)
        env = self.env
        trace = self.trace
        handlers = self._handlers
        last = n - 1
        for i, skb in enumerate(batch):
            if trace.enabled:
                trace.post(env.now, "host.rx.dispatch", skb.ident,
                           conn=skb.conn, batch=n)
            handler = handlers.get(skb.conn, self._default_handler)
            if handler is None:
                raise TopologyError(
                    f"{self.name}: no handler for connection {skb.conn!r}")
            # The last frame's handler is the tail of this entry, so a
            # hop it makes through ``then`` may run directly; the frames
            # before it must leave their hops on the lane.
            if i < last:
                env.call_nested(handler, skb)
            else:
                handler(skb)

    # -- reporting -------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} ({self.spec.name}, {self.config.describe()})>"
