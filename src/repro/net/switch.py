"""Store-and-forward Ethernet switch (Foundry FastIron 1500 model).

The paper's indirect and multi-flow tests run through a FastIron 1500
whose 480 Gb/s backplane "far exceeds the needs of our tests"; the
interesting behaviour is per-port: store-and-forward latency (the
measured +6 µs hop penalty of Fig. 6) and output queueing when many GbE
clients aggregate into one 10GbE port.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional

from repro.chaos.hooks import register_target as register_chaos_target
from repro.errors import LinkError, TopologyError
from repro.net.ethernet import EthernetLink
from repro.net.train import BacklogView
from repro.oskernel.skbuff import SkBuff
from repro.sim.engine import Environment
from repro.sim.monitor import CounterMonitor
from repro.sim.trace import TraceBuffer
from repro.telemetry.session import active_metrics, register_trace
from repro.units import Gbps, us

__all__ = ["Switch", "SwitchPort", "SwitchModel", "FASTIRON_1500"]


@dataclass(frozen=True)
class SwitchModel:
    """Datasheet-level description of a switch."""

    name: str
    forwarding_latency_s: float
    backplane_bps: float
    port_queue_frames: int

    def __post_init__(self) -> None:
        if self.forwarding_latency_s < 0:
            raise TopologyError("forwarding latency cannot be negative")
        if self.backplane_bps <= 0:
            raise TopologyError("backplane bandwidth must be positive")
        if self.port_queue_frames < 1:
            raise TopologyError("port queue must hold at least one frame")


#: The paper's chassis: +6 µs measured hop penalty (Fig. 6: 25 µs through
#: the switch vs 19 µs back-to-back; ~0.2 µs of that is the second
#: serialization of small frames).
FASTIRON_1500 = SwitchModel(
    name="FastIron 1500",
    forwarding_latency_s=us(5.8),
    backplane_bps=Gbps(480),
    port_queue_frames=512,
)


class SwitchPort:
    """One egress port: an output queue draining onto its link."""

    def __init__(self, env: Environment, switch: "Switch", port_id: str,
                 egress: EthernetLink, queue_frames: int):
        self.env = env
        self.switch = switch
        self.port_id = port_id
        self.egress = egress
        self._backlog: Deque[SkBuff] = deque()
        self._busy = False
        self.queue = BacklogView(self._backlog, queue_frames)
        self.drops = CounterMonitor(f"{switch.name}.{port_id}.drops")
        self.forwarded = CounterMonitor(f"{switch.name}.{port_id}.fwd")
        self.trace = switch.trace
        metrics = active_metrics()
        if metrics is not None:
            label = dict(switch=switch.name, port=port_id)
            self._c_fwd = metrics.counter("switch.forwarded", **label)
            self._c_drop = metrics.counter("switch.drops", **label)
        else:
            self._c_fwd = self._c_drop = None
        register_chaos_target("switch_port", f"{switch.name}.{port_id}", self)

    def enqueue(self, skb: SkBuff) -> None:
        """Apply the (pipelined) forwarding latency, then queue for
        egress; a full queue means drop-tail."""
        self.env.schedule_call(self.switch.model.forwarding_latency_s,
                               self._enqueue, skb)

    def _enqueue(self, skb: SkBuff) -> None:
        trace = self.trace
        if self.queue.level >= self.queue.capacity:
            self.drops.add()
            if self._c_drop is not None:
                self._c_drop.inc()
            if trace.enabled:
                trace.post(self.env.now, "switch.drop", skb.ident,
                           port=self.port_id, qlen=self.queue.level)
            return
        if trace.enabled:
            trace.post(self.env.now, "switch.enqueue", skb.ident,
                       port=self.port_id, qlen=self.queue.level)
        if self._busy:
            # Joins the train already draining; counted in the queue
            # level.  The frame in service is not.
            self._backlog.append(skb)
        else:
            # A tail hop before service: _enqueue is always an entry of
            # its own (scheduled after the forwarding latency).
            self._busy = True
            self.env.then(self._service, skb)

    # -- drain -----------------------------------------------------------------------
    def _service(self, skb: SkBuff) -> None:
        # Chain off serialization so backlog (and drop-tail) stays in
        # this output queue, not in the link.
        end = self.egress.charge_frame(skb)
        self.env.schedule_call_at(end, self._serialized, skb)

    def _serialized(self, skb: SkBuff) -> None:
        self.forwarded.add()
        if self._c_fwd is not None:
            self._c_fwd.inc()
        trace = self.trace
        if trace.enabled:
            trace.post(self.env.now, "switch.forward", skb.ident,
                       port=self.port_id)
        if self._backlog:
            self._service(self._backlog.popleft())
        else:
            self._busy = False


class Switch:
    """A named switch with an address-learning forwarding table.

    Build topology by calling :meth:`add_port` with each egress link,
    then :meth:`learn` for every address reachable through a port.
    Ingress links are connected with the switch itself as sink.
    """

    def __init__(self, env: Environment, model: SwitchModel = FASTIRON_1500,
                 name: str = "switch"):
        self.env = env
        self.model = model
        self.name = name
        self._ports: Dict[str, SwitchPort] = {}
        self._fdb: Dict[str, str] = {}
        self.flooded = CounterMonitor(f"{name}.flooded")
        self.trace = TraceBuffer(enabled=False)
        register_trace(name, self.trace)

    # -- topology -------------------------------------------------------------
    def add_port(self, port_id: str, egress: EthernetLink) -> SwitchPort:
        """Create an egress port draining onto ``egress``."""
        if port_id in self._ports:
            raise TopologyError(f"{self.name}: duplicate port {port_id!r}")
        port = SwitchPort(self.env, self, port_id, egress,
                          self.model.port_queue_frames)
        self._ports[port_id] = port
        return port

    def learn(self, address: str, port_id: str) -> None:
        """Bind ``address`` to a port in the forwarding table."""
        if port_id not in self._ports:
            raise TopologyError(f"{self.name}: unknown port {port_id!r}")
        self._fdb[address] = port_id

    def port(self, port_id: str) -> SwitchPort:
        """Lookup a port by id."""
        try:
            return self._ports[port_id]
        except KeyError:
            raise TopologyError(f"{self.name}: unknown port {port_id!r}") from None

    # -- data path ----------------------------------------------------------------
    def receive_frame(self, skb: SkBuff) -> None:
        """Ingress: forward by destination address."""
        dst = skb.meta.get("dst")
        if dst is None:
            raise LinkError(f"{self.name}: frame #{skb.ident} has no dst")
        port_id = self._fdb.get(dst)
        if port_id is None:
            # Unknown unicast: a real switch floods; in our closed
            # topologies this is always a wiring bug, so fail loudly.
            self.flooded.add()
            raise TopologyError(
                f"{self.name}: no forwarding entry for {dst!r}")
        self._ports[port_id].enqueue(skb)

    def total_drops(self) -> int:
        """Frames dropped across all ports."""
        return sum(int(p.drops.total) for p in self._ports.values())
