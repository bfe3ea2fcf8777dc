"""Hybrid fluid+DES fabric simulation: O(1000)-flow runs made tractable.

The paper's testbeds top out at a handful of flows because every segment
of every flow costs discrete events.  Cluster/grid fabrics need
thousands of concurrent flows — far past what the packet DES can touch
— but almost all of those flows are *background*: their aggregate
pressure on the shared queues matters, their per-packet timing does
not.  This module splits the work accordingly:

* a small set of **foreground** flows runs at packet granularity in the
  DES (:class:`FabricFlow` over :class:`DesLink` chains built from a
  :class:`~repro.net.fabric.FabricTopology`), with AIMD window dynamics,
  drop-tail queues, FIFO serialization and per-hop propagation;
* the **background** population advances in a vectorised
  :class:`~repro.tcp.fluid.FluidFabric`, stepped on a coarse tick;
* a :class:`FluidCoupler` runs the conservative handoff each tick:
  measured foreground packet rates become fluid cross traffic
  (background yields capacity the foreground actually uses), and fluid
  link utilization/overflow probability shapes the DES queues through
  :class:`~repro.net.coupling.QueueCoupling` (foreground feels the
  congestion the background creates).

With an empty background set, hybrid mode builds exactly the pure-DES
simulation — bit-identical events, bit-identical results.  For small
fabrics the hybrid aggregate goodput stays within a few percent of the
all-DES run (gated by ``scripts/bench_compare.py --only fabric``); for
O(1000)-flow fabrics the hybrid run completes in seconds where the
all-DES run is intractable.

Knobs
-----
``REPRO_HYBRID``
    Unset/``1`` (default): experiment runners may choose hybrid mode
    for large flow counts.  ``0``/``off``: force all-DES everywhere.

The coupling tick is :class:`FabricSimulation`'s ``tick_s`` (default:
four times the largest base RTT, clamped to [10 us, 1 ms]).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.core.knobs import env_value
from repro.errors import ProtocolError, TopologyError
from repro.net.coupling import QueueCoupling
from repro.net.fabric import FabricTopology
from repro.sim.engine import Environment

if TYPE_CHECKING:
    from repro.tcp.fluid import FluidFabric

__all__ = ["DesLink", "FabricFlow", "FluidCoupler", "FabricSimulation",
           "FabricResult", "hybrid_enabled", "incast_pairs",
           "alltoall_pairs", "bisection_pairs", "HYBRID_ENV"]

#: environment variable gating hybrid mode (unset/1 = allowed)
HYBRID_ENV = "REPRO_HYBRID"

#: Ethernet + IP + TCP (+options) framing bytes per fabric segment
HEADER_BYTES = 66


def hybrid_enabled() -> bool:
    """True when ``REPRO_HYBRID`` permits hybrid mode (the default)."""
    return env_value(HYBRID_ENV)


class FabricPacket:
    """One foreground segment in flight across the fabric."""

    __slots__ = ("flow", "seq", "hop", "payload", "size_bits")

    def __init__(self, flow: "FabricFlow", seq: int, payload: int,
                 size_bits: float):
        self.flow = flow
        self.seq = seq
        self.hop = 0
        self.payload = payload
        self.size_bits = size_bits


class DesLink:
    """Packet-level realization of one directed fabric link.

    A drop-tail output queue feeding a FIFO serializer (arithmetic
    ``free_at`` accounting, one completion + one delivery event per
    packet) and a fixed propagation delay.  When a
    :class:`~repro.net.coupling.QueueCoupling` is attached the link is
    *shared* with the fluid background: admission runs the coupled drop
    coin flip, the serializer runs at the foreground's share of the
    line rate, and every serviced packet is reported back for the
    fluid's cross-traffic accounting.
    """

    __slots__ = ("env", "name", "index", "rate_bps", "delay_s", "capacity",
                 "coupling", "drops", "serviced", "_free_at", "_level")

    def __init__(self, env: Environment, index: int, name: str,
                 rate_bps: float, delay_s: float, queue_packets: int):
        self.env = env
        self.index = index
        self.name = name
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.capacity = queue_packets
        self.coupling: Optional[QueueCoupling] = None
        self.drops = 0
        self.serviced = 0
        self._free_at = 0.0
        self._level = 0

    @property
    def level(self) -> int:
        """Packets queued or in serialization."""
        return self._level

    def send(self, pkt: FabricPacket,
             arrive: Callable[[FabricPacket], None]) -> None:
        """Queue one packet for this link; drop-tail + coupled drops.

        Drops are signalled to the owning flow asynchronously (a
        zero-delay event) so a sender pumping into a full queue cannot
        recurse through its own loss handler.
        """
        env = self.env
        coupling = self.coupling
        if self._level >= self.capacity or \
                (coupling is not None and not coupling.admit()):
            self.drops += 1
            env.schedule_call(0.0, pkt.flow.on_drop, pkt)
            return
        self._level += 1
        rate = self.rate_bps
        if coupling is not None:
            rate *= coupling.service_scale()
        now = env._now
        free = self._free_at
        start = free if free > now else now
        end = start + pkt.size_bits / rate
        self._free_at = end
        env.schedule_call_at(end, self._serviced_cb, pkt)
        env.schedule_call_at(end + self.delay_s, arrive, pkt)

    def _serviced_cb(self, pkt: FabricPacket) -> None:
        self._level -= 1
        self.serviced += 1
        if self.coupling is not None:
            self.coupling.record_service()


class FabricFlow:
    """A foreground TCP flow at packet granularity (reduced Reno).

    Window dynamics: slow start (+1 segment per ACK) until ``ssthresh``,
    then congestion avoidance (+1/cwnd per ACK); one window halving per
    loss *event* (NewReno-style recovery window keyed on sequence
    numbers), with loss detection one estimated RTT after the drop (the
    fast-retransmit signal).  ACKs return over a fixed reverse delay —
    the fabric workloads of interest congest the forward direction.
    """

    __slots__ = ("env", "flow_id", "route", "mss", "size_bits", "wmax",
                 "ack_delay_s", "loss_detect_s", "cwnd", "ssthresh",
                 "inflight", "next_seq", "recover_seq", "delivered_bytes",
                 "drops", "loss_events", "_last_hop")

    def __init__(self, env: Environment, flow_id: int,
                 route: Sequence[DesLink], mss: int,
                 max_window_segments: float, ack_delay_s: float,
                 loss_detect_s: float, start_s: float = 0.0):
        if not route:
            raise TopologyError(f"flow {flow_id}: empty route")
        self.env = env
        self.flow_id = flow_id
        self.route = tuple(route)
        self.mss = mss
        self.size_bits = (mss + HEADER_BYTES) * 8.0
        self.wmax = max(2.0, float(max_window_segments))
        self.ack_delay_s = ack_delay_s
        self.loss_detect_s = loss_detect_s
        self.cwnd = 2.0
        self.ssthresh = float("inf")
        self.inflight = 0
        self.next_seq = 0
        self.recover_seq = -1
        self.delivered_bytes = 0
        self.drops = 0
        self.loss_events = 0
        self._last_hop = len(self.route) - 1
        env.schedule_call(start_s, self._pump)

    def _pump(self) -> None:
        while self.inflight < int(self.cwnd):
            pkt = FabricPacket(self, self.next_seq, self.mss, self.size_bits)
            self.next_seq += 1
            self.inflight += 1
            self.route[0].send(pkt, self._arrive)

    def _arrive(self, pkt: FabricPacket) -> None:
        hop = pkt.hop
        if hop == self._last_hop:
            self.delivered_bytes += pkt.payload
            self.env.schedule_call(self.ack_delay_s, self._acked, pkt.seq)
            return
        pkt.hop = hop + 1
        self.route[pkt.hop].send(pkt, self._arrive)

    def _acked(self, seq: int) -> None:
        self.inflight -= 1
        cwnd = self.cwnd
        if cwnd < self.ssthresh:
            cwnd += 1.0
        else:
            cwnd += 1.0 / cwnd
        self.cwnd = cwnd if cwnd < self.wmax else self.wmax
        self._pump()

    def on_drop(self, pkt: FabricPacket) -> None:
        """A link dropped one of our packets; detection is delayed by
        one RTT estimate.  Deliberately does not pump: a sender facing
        a full queue pauses until ACK clocking or loss detection."""
        self.inflight -= 1
        self.drops += 1
        self.env.schedule_call(self.loss_detect_s, self._loss, pkt.seq)

    def _loss(self, seq: int) -> None:
        if seq >= self.recover_seq:
            self.loss_events += 1
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self.cwnd = self.ssthresh
            self.recover_seq = self.next_seq
        self._pump()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FabricFlow #{self.flow_id} cwnd={self.cwnd:.1f} "
                f"inflight={self.inflight}>")


class FluidCoupler:
    """The periodic DES<->fluid handoff (one instance per hybrid run).

    Every ``tick_s`` the coupler (1) drains the foreground service
    counters of all shared links into the fluid model's cross-traffic
    vector, (2) steps the fluid fabric by one tick, and (3) writes the
    resulting per-link utilization and overflow probability back into
    the DES queue couplings.  Conservative in both directions: fluid
    flows only see capacity the foreground did not use; foreground
    packets face the drop probability the fluid queues actually
    exhibit.
    """

    def __init__(self, env: Environment, fluid: FluidFabric,
                 shared_links: Dict[int, DesLink], tick_s: float):
        if tick_s <= 0:
            raise ProtocolError("coupling tick must be positive")
        self.env = env
        self.fluid = fluid
        self.shared_links = shared_links
        self.tick_s = tick_s
        self.ticks = 0
        import numpy as np   # NumPy loads only for a hybrid run
        self._cross = np.zeros(fluid.n_links)
        self._handle = env.every(tick_s, self._tick)

    def _tick(self) -> None:
        dt = self.tick_s
        cross = self._cross
        for idx, link in self.shared_links.items():
            cross[idx] = link.coupling.take_foreground_pps(dt)
        fluid = self.fluid
        fluid.set_cross_traffic(cross)
        fluid.step(dt)
        # Python floats (item) from here on: NumPy scalars would reach
        # the couplings' drop coin flips, DesLink._free_at and the event
        # times on the engine heap, and slow every operation there.
        util = fluid.link_utilization
        prob = fluid.link_drop_prob
        for idx, link in self.shared_links.items():
            link.coupling.set_background(util.item(idx), prob.item(idx))
        self.ticks += 1

    def cancel(self) -> None:
        """Stop ticking (used when a run ends before its horizon)."""
        self._handle.cancel()


@dataclass(frozen=True)
class FabricResult:
    """Outcome of one :class:`FabricSimulation` run.

    Goodputs are payload bits/s over the post-warmup measurement
    window.  ``aggregate`` = foreground + background; in ``des`` mode
    every flow is foreground and ``background_goodput_bps`` is 0.
    """

    mode: str                           # "des" | "hybrid"
    topology: str
    n_flows: int
    n_foreground: int
    n_background: int
    duration_s: float
    measure_s: float
    aggregate_goodput_bps: float
    foreground_goodput_bps: float
    background_goodput_bps: float
    per_flow_foreground_bps: Tuple[float, ...]
    foreground_drops: int
    coupled_drops: int
    fluid_losses: int
    coupler_ticks: int
    events_scheduled: int
    wall_s: float

    @property
    def aggregate_goodput_gbps(self) -> float:
        """Aggregate goodput in Gb/s."""
        return self.aggregate_goodput_bps / 1e9


class FabricSimulation:
    """One fabric workload: topology + flow pairs + execution mode.

    ``pairs`` lists ``(src_host, dst_host)`` per flow; flow *i* routes
    with ``flow_id=i`` (deterministic ECMP), so the same pair list maps
    onto identical paths in every mode — the property the hybrid-vs-DES
    validation relies on.  The first ``n_foreground`` pairs are the
    foreground set; in ``des`` mode every flow runs in the DES, in
    ``hybrid`` mode the rest advance in the fluid model.  ``auto``
    resolves to hybrid when allowed by ``REPRO_HYBRID`` and there is a
    background population, else to ``des``.
    """

    def __init__(self, topo: FabricTopology,
                 pairs: Sequence[Tuple[str, str]],
                 n_foreground: int = 8,
                 mode: str = "auto",
                 mss: int = 8948,
                 max_window_bytes: float = 256 * 1024,
                 stagger_s: float = 20e-6,
                 tick_s: Optional[float] = None,
                 seed: int = 1):
        if not pairs:
            raise ProtocolError("need at least one flow pair")
        if n_foreground < 1:
            raise ProtocolError("need at least one foreground flow")
        if mode not in ("auto", "des", "hybrid"):
            raise ProtocolError(
                f"unknown mode {mode!r}; expected auto|des|hybrid")
        if tick_s is not None and not tick_s > 0:  # also refuses NaN
            raise ProtocolError(
                f"coupling tick must be positive, got {tick_s!r}")
        self.topo = topo
        self.pairs = list(pairs)
        self.n_flows = len(self.pairs)
        self.n_foreground = min(n_foreground, self.n_flows)
        if mode == "auto":
            mode = ("hybrid" if hybrid_enabled()
                    and self.n_flows > self.n_foreground else "des")
        self.mode = mode
        self.mss = mss
        self.max_window_bytes = max_window_bytes
        self.stagger_s = stagger_s
        self.seed = seed
        self._tick_s = tick_s
        # deterministic per-flow routes, shared by both modes
        self.routes: List[List[int]] = [
            topo.route(src, dst, flow_id=i)
            for i, (src, dst) in enumerate(self.pairs)]

    # -- derived timing -----------------------------------------------------
    def _flow_timing(self, route: Sequence[int]) -> Tuple[float, float]:
        """(ack delay, RTT estimate) for a route, from the topology."""
        links = self.topo.links
        fwd_delay = sum(links[i].delay_s for i in route)
        ser = sum((self.mss + HEADER_BYTES) * 8.0 / links[i].rate_bps
                  for i in route)
        ack_delay = fwd_delay  # symmetric reverse path, negligible ack size
        return ack_delay, fwd_delay + ser + ack_delay

    def coupling_tick(self) -> float:
        """The coupling tick: the constructor's ``tick_s``, else derived."""
        if self._tick_s is not None:
            return self._tick_s
        rtts = [self._flow_timing(r)[1] for r in self.routes]
        return min(max(4.0 * max(rtts), 10e-6), 1e-3)

    # -- execution ----------------------------------------------------------
    def run(self, duration_s: float = 0.2,
            warmup_fraction: float = 0.3) -> FabricResult:
        """Run the workload and measure post-warmup goodput."""
        if duration_s <= 0:
            raise ProtocolError("duration must be positive")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ProtocolError("warmup fraction must be in [0, 1)")
        # wall_s is operator-facing reporting; it never enters the
        # cached/compared result rows
        wall_start = perf_counter()  # reprolint: disable=RPR002
        env = Environment()
        links = self.topo.links
        wmax_segments = max(2.0, self.max_window_bytes / self.mss)

        n_des = (self.n_flows if self.mode == "des" else self.n_foreground)
        des_links: Dict[int, DesLink] = {}

        def des_link(idx: int) -> DesLink:
            link = des_links.get(idx)
            if link is None:
                spec = links[idx]
                link = DesLink(env, idx, f"{spec.src}->{spec.dst}",
                               spec.rate_bps, spec.delay_s,
                               spec.queue_packets)
                des_links[idx] = link
            return link

        flows: List[FabricFlow] = []
        for i in range(n_des):
            route = [des_link(idx) for idx in self.routes[i]]
            ack_delay, rtt = self._flow_timing(self.routes[i])
            flows.append(FabricFlow(
                env, i, route, self.mss, wmax_segments,
                ack_delay_s=ack_delay, loss_detect_s=rtt,
                start_s=i * self.stagger_s))

        fluid: Optional[FluidFabric] = None
        coupler: Optional[FluidCoupler] = None
        n_background = self.n_flows - n_des
        if self.mode == "hybrid" and n_background > 0:
            from repro.tcp.fluid import FluidFabric
            cap_pps = [spec.rate_bps / ((self.mss + HEADER_BYTES) * 8.0)
                       for spec in links]
            bg_routes = self.routes[n_des:]
            bg_rtts = [self._flow_timing(r)[1] for r in bg_routes]
            fluid = FluidFabric(
                link_capacity_pps=cap_pps,
                link_queue_packets=[spec.queue_packets for spec in links],
                routes=bg_routes,
                base_rtt_s=bg_rtts,
                mss=self.mss,
                max_window_segments=wmax_segments,
                start_times=[(n_des + j) * self.stagger_s
                             for j in range(n_background)])
            for idx, link in des_links.items():
                link.coupling = QueueCoupling(link.name, seed=self.seed)
            coupler = FluidCoupler(env, fluid, des_links,
                                   tick_s=self.coupling_tick())

        # post-warmup measurement window
        warmup_s = duration_s * warmup_fraction
        snapshot = {"fg": [0] * n_des, "bg": 0.0, "at": 0.0}

        def take_snapshot() -> None:
            snapshot["fg"] = [f.delivered_bytes for f in flows]
            snapshot["bg"] = (fluid.aggregate_delivered_bits()
                              if fluid is not None else 0.0)
            snapshot["at"] = env.now

        if warmup_s > 0:
            env.schedule_call(warmup_s, take_snapshot)
        env.run(until=duration_s)
        if coupler is not None:
            coupler.cancel()
        if fluid is not None and fluid.now < duration_s - 1e-12:
            fluid.step(duration_s - fluid.now)

        measure_s = duration_s - snapshot["at"]
        per_flow = tuple(
            (f.delivered_bytes - base) * 8.0 / measure_s
            for f, base in zip(flows, snapshot["fg"]))
        fg_bps = sum(per_flow)
        bg_bps = ((fluid.aggregate_delivered_bits() - snapshot["bg"])
                  / measure_s if fluid is not None else 0.0)
        return FabricResult(
            mode=self.mode,
            topology=self.topo.name,
            n_flows=self.n_flows,
            n_foreground=n_des if self.mode == "des" else self.n_foreground,
            n_background=n_background if self.mode == "hybrid" else 0,
            duration_s=duration_s,
            measure_s=measure_s,
            aggregate_goodput_bps=fg_bps + bg_bps,
            foreground_goodput_bps=fg_bps,
            background_goodput_bps=bg_bps,
            per_flow_foreground_bps=per_flow,
            foreground_drops=sum(f.drops for f in flows),
            coupled_drops=sum(
                link.coupling.coupled_drops
                for link in des_links.values()
                if link.coupling is not None),
            fluid_losses=fluid.losses if fluid is not None else 0,
            coupler_ticks=coupler.ticks if coupler is not None else 0,
            events_scheduled=env.events_scheduled,
            wall_s=perf_counter() - wall_start)  # reprolint: disable=RPR002


# ---------------------------------------------------------------------------
# Workload generators
# ---------------------------------------------------------------------------

def incast_pairs(topo: FabricTopology, n_flows: int) -> List[Tuple[str, str]]:
    """``n_flows`` senders converging on one server (the first host).

    Senders cycle over the remaining hosts, so flow counts beyond the
    host count stack multiple flows per sender — the classic incast
    pattern congesting the server's edge downlink.
    """
    hosts = topo.hosts
    if len(hosts) < 2:
        raise TopologyError("incast needs at least two hosts")
    if n_flows < 1:
        raise ProtocolError("need at least one flow")
    server = hosts[0]
    senders = hosts[1:]
    return [(senders[i % len(senders)], server) for i in range(n_flows)]


def alltoall_pairs(topo: FabricTopology,
                   n_flows: int) -> List[Tuple[str, str]]:
    """``n_flows`` flows cycling over every ordered host pair.

    Pairs are enumerated stride-first — every host sends once (to its
    ``+1`` neighbour in host order), then once at stride 2, and so on —
    so even a small flow count exercises many sources and sinks at once
    (the MPI collective pattern), instead of one host fanning out.
    """
    hosts = topo.hosts
    n_hosts = len(hosts)
    if n_hosts < 2:
        raise TopologyError("all-to-all needs at least two hosts")
    if n_flows < 1:
        raise ProtocolError("need at least one flow")
    pairs: List[Tuple[str, str]] = []
    for i in range(n_flows):
        src = i % n_hosts
        stride = 1 + (i // n_hosts) % (n_hosts - 1)
        pairs.append((hosts[src], hosts[(src + stride) % n_hosts]))
    return pairs


def bisection_pairs(topo: FabricTopology,
                    n_flows: int) -> List[Tuple[str, str]]:
    """``n_flows`` flows crossing the fabric's host-order bisection.

    Hosts are split in half in builder order (for the torus that is the
    x-dimension cut; for the fat-tree, the first half of the pods) and
    paired with their mirror in the other half, alternating direction —
    the bisection-bandwidth workload.
    """
    hosts = topo.hosts
    if len(hosts) < 2:
        raise TopologyError("bisection needs at least two hosts")
    if n_flows < 1:
        raise ProtocolError("need at least one flow")
    half = len(hosts) // 2
    lo, hi = hosts[:half], hosts[half:2 * half]
    pairs: List[Tuple[str, str]] = []
    for i in range(n_flows):
        j = i % half
        if (i // half) % 2 == 0:
            pairs.append((lo[j], hi[j]))
        else:
            pairs.append((hi[j], lo[j]))
    return pairs
