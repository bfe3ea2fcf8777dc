"""WAN substrate: POS circuits and routers for the §4 record run.

The paper's path: Sunnyvale --(Level3 OC-192 POS)--> StarLight Chicago
--(transatlantic LHCnet OC-48 POS)--> CERN Geneva, crossing a Cisco GSR
12406, a Juniper T640 (TeraGrid), a Cisco 7609 and a Cisco 7606, with a
measured RTT of 180 ms.  The OC-48 segment (2.5 Gb/s) is the bottleneck;
packet loss "is due exclusively to congestion", i.e. to drop-tail queue
overflow at the bottleneck router.

Circuit lengths below are *route* kilometres chosen to reproduce the
measured 180 ms RTT over fibre at 2e8 m/s (great-circle distance is
shorter than real routing).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.chaos.hooks import register_target as register_chaos_target
from repro.errors import LinkError, TopologyError
from repro.net.ethernet import FrameSink
from repro.net.train import BacklogView
from repro.oskernel.skbuff import SkBuff
from repro.sim.engine import Environment
from repro.sim.monitor import CounterMonitor
from repro.sim.timeline import FifoTimeline
from repro.sim.trace import TraceBuffer
from repro.telemetry.session import active_metrics, register_trace
from repro.units import Gbps, us

__all__ = ["PosCircuit", "Router", "WanPath",
           "OC192_BPS", "OC48_BPS", "SONET_PAYLOAD_FRACTION", "POS_OVERHEAD"]

#: SONET line rates.
OC192_BPS = Gbps(9.953)
OC48_BPS = Gbps(2.488)

#: Fraction of the SONET line rate available to the PPP payload
#: (section + line + path overhead): OC-48 carries ~2.396 Gb/s of POS
#: payload, which is what makes the paper's 2.38 Gb/s "roughly 99%
#: payload efficiency".
SONET_PAYLOAD_FRACTION = 0.963

#: PPP/HDLC framing bytes per packet on a POS circuit.
POS_OVERHEAD = 9


class PosCircuit:
    """One direction of a packet-over-SONET circuit."""

    def __init__(self, env: Environment, line_bps: float, length_km: float,
                 name: str = "pos",
                 trace: Optional[TraceBuffer] = None):
        if line_bps <= 0:
            raise LinkError(f"{name}: line rate must be positive")
        if length_km < 0:
            raise LinkError(f"{name}: length cannot be negative")
        self.env = env
        self.line_bps = line_bps
        self.payload_bps = line_bps * SONET_PAYLOAD_FRACTION
        self.propagation_s = length_km * 1000.0 / 2.0e8
        self.name = name
        self._sink: Optional[FrameSink] = None
        self._txline = FifoTimeline(env, capacity=1, name=f"{name}.txline")
        self.frames = CounterMonitor(f"{name}.frames")
        self.trace = trace
        metrics = active_metrics()
        self._c_tx = (metrics.counter("pos.tx.frames", circuit=name)
                      if metrics is not None else None)
        register_chaos_target("link", name, self)

    def connect(self, sink: FrameSink) -> None:
        """Attach the far end."""
        self._sink = sink

    @property
    def sink(self) -> Optional[FrameSink]:
        """The attached receiver (None while unconnected) — the same
        tap-compatible accessor :class:`~repro.net.ethernet.
        EthernetLink` exposes, so fault taps can splice into WAN
        circuits too."""
        return self._sink

    def serialization_time(self, skb: SkBuff) -> float:
        """Seconds to clock one packet onto the circuit."""
        return (skb.payload + skb.headers + POS_OVERHEAD) * 8.0 / self.payload_bps

    def transmit(self, skb: SkBuff) -> None:
        """Serialize FIFO, deliver after propagation (fire-and-forget)."""
        self.charge_frame(skb)

    def charge_frame(self, skb: SkBuff) -> float:
        """Commit the FIFO serialization hold arithmetically and schedule
        the delivery; returns the serialization-end instant (see
        :meth:`EthernetLink.charge_frame`)."""
        if self._sink is None:
            raise LinkError(f"{self.name}: transmit on unconnected circuit")
        env = self.env
        _, end = self._txline.charge(self.serialization_time(skb))
        env.schedule_call_at(end + self.propagation_s,
                             self._deliver, skb, end)
        return end

    def _deliver(self, skb: SkBuff, serialized_at: float) -> None:
        self.frames.add()
        if self._c_tx is not None:
            self._c_tx.inc()
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.post(serialized_at, "pos.tx", skb.ident,
                       circuit=self.name, nbytes=skb.frame_bytes)
        self._sink.receive_frame(skb)

    def utilization(self) -> float:
        """Busy fraction of the circuit."""
        return self._txline.utilization()


class Router:
    """A drop-tail output-queued router hop.

    Frames arriving via :meth:`receive_frame` are queued for the
    ``egress`` circuit; when the queue is full the frame is dropped —
    the congestion signal TCP reacts to in §4.
    """

    def __init__(self, env: Environment, egress, name: str = "router",
                 queue_frames: int = 1024,
                 forwarding_latency_s: float = us(20.0),
                 trace: Optional[TraceBuffer] = None):
        if queue_frames < 1:
            raise TopologyError(f"{name}: queue must hold at least one frame")
        self.env = env
        self.egress = egress
        self.name = name
        self._backlog: Deque[SkBuff] = deque()
        self._busy = False
        self.queue = BacklogView(self._backlog, queue_frames)
        self.forwarding_latency_s = forwarding_latency_s
        self.drops = CounterMonitor(f"{name}.drops")
        self.forwarded = CounterMonitor(f"{name}.fwd")
        self.trace = trace
        metrics = active_metrics()
        if metrics is not None:
            self._c_fwd = metrics.counter("wan.forwarded", router=name)
            self._c_drop = metrics.counter("wan.drops", router=name)
        else:
            self._c_fwd = self._c_drop = None
        register_chaos_target("router", name, self)

    def receive_frame(self, skb: SkBuff) -> None:
        """Lookup/processing latency, then queue or drop.

        The forwarding latency is pipelined (it delays each frame but
        does not occupy the egress), so it never caps throughput."""
        self.env.schedule_call(self.forwarding_latency_s,
                               self._enqueue, skb)

    def _enqueue(self, skb: SkBuff) -> None:
        trace = self.trace
        if self.queue.level >= self.queue.capacity:
            self.drops.add()
            if self._c_drop is not None:
                self._c_drop.inc()
            if trace is not None and trace.enabled:
                trace.post(self.env.now, "wan.drop", skb.ident,
                           router=self.name, qlen=self.queue.level)
            return
        if trace is not None and trace.enabled:
            trace.post(self.env.now, "wan.enqueue", skb.ident,
                       router=self.name, qlen=self.queue.level)
        if self._busy:
            self._backlog.append(skb)
        else:
            # A tail hop before service: _enqueue is always an entry of
            # its own (scheduled after the forwarding latency).
            self._busy = True
            self.env.then(self._service, skb)

    # -- drain -----------------------------------------------------------------------
    def _service(self, skb: SkBuff) -> None:
        # Chain off serialization: backlog lives in *this* queue, where
        # drop-tail applies.
        end = self.egress.charge_frame(skb)
        self.env.schedule_call_at(end, self._serialized, skb)

    def _serialized(self, skb: SkBuff) -> None:
        self.forwarded.add()
        if self._c_fwd is not None:
            self._c_fwd.inc()
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.post(self.env.now, "wan.forward", skb.ident,
                       router=self.name)
        if self._backlog:
            self._service(self._backlog.popleft())
        else:
            self._busy = False

    @property
    def occupancy(self) -> int:
        """Frames currently queued."""
        return self.queue.level


class WanPath:
    """One direction of the Sunnyvale—Geneva path.

    ``head`` is the :class:`FrameSink` a host NIC should transmit into;
    the final circuit is connected to the receiving host by the caller
    via :meth:`connect`.
    """

    def __init__(self, env: Environment, name: str = "wan",
                 bottleneck_queue_frames: int = 1024,
                 oc192_km: float = 5000.0, oc48_km: float = 13000.0):
        self.env = env
        self.name = name
        self.trace = TraceBuffer(enabled=False)
        register_trace(name, self.trace)
        # Sunnyvale -> Chicago: OC-192, entered through the GSR 12406.
        self.oc192 = PosCircuit(env, OC192_BPS, oc192_km, name=f"{name}.oc192",
                                trace=self.trace)
        # Chicago -> Geneva: OC-48, the bottleneck, entered through the
        # TeraGrid T640 whose output queue is where congestion loss lives.
        self.oc48 = PosCircuit(env, OC48_BPS, oc48_km, name=f"{name}.oc48",
                               trace=self.trace)
        self.ingress_router = Router(env, self.oc192, name=f"{name}.gsr12406",
                                     queue_frames=4096, trace=self.trace)
        self.bottleneck_router = Router(env, self.oc48, name=f"{name}.t640",
                                        queue_frames=bottleneck_queue_frames,
                                        trace=self.trace)
        self.oc192.connect(self.bottleneck_router)

    @property
    def head(self) -> FrameSink:
        """Where the sending host's NIC should deliver frames."""
        return self.ingress_router

    def connect(self, sink: FrameSink) -> None:
        """Attach the receiving host's NIC at Geneva."""
        self.oc48.connect(sink)

    @property
    def propagation_s(self) -> float:
        """One-way propagation of the whole path."""
        return self.oc192.propagation_s + self.oc48.propagation_s

    @property
    def bottleneck_bps(self) -> float:
        """Payload rate of the slowest circuit."""
        return min(self.oc192.payload_bps, self.oc48.payload_bps)

    @property
    def drops(self) -> int:
        """Congestion drops along the path."""
        return int(self.ingress_router.drops.total
                   + self.bottleneck_router.drops.total)
