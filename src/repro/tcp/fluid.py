"""Fluid AIMD models of TCP flows over bottlenecks (WAN and fabric runs).

Packet-level simulation of an hour-long, 54-MB-window transatlantic flow
is wasteful; the §4 dynamics (slow start, congestion avoidance, queue
build-up at the OC-48, drop-tail loss, AIMD recovery) are faithfully
captured by the classic fluid model iterated per RTT:

* sending rate = W / RTT_eff, RTT_eff = base RTT + queue/C,
* queue integrates (rate - C), loss when the queue exceeds its capacity,
* W: x2 per RTT in slow start, +1 per RTT in avoidance, halved on loss
  (or FAST TCP's delay law — :class:`FastParams`),
* W capped by the socket-buffer window (the paper's tuning instrument:
  "we turn to the flow-control window to implicitly cap the
  congestion-window size to the bandwidth-delay product").

Two granularities share that arithmetic:

* :func:`simulate_fluid` — one or N flows sharing one bottleneck (the §4
  WAN runs: the LSR's single-stream and multi-stream categories), a
  scalar loop over per-flow lists that sums the flows' rates in NumPy's
  float64 order;
* :class:`FluidFabric`   — N flows over a *fabric* of links
  (fat-tree / torus), steppable from outside so a discrete-event run
  can advance it tick by tick and exchange traffic with it — the
  background half of the hybrid fluid+DES mode
  (:mod:`repro.net.hybrid`).

A 10,000-RTT :func:`simulate_fluid` run costs milliseconds.  A
:class:`FluidFabric` step spends its NumPy calls where the congestion
is: route sums read a padded hop table and sum each distinct hop-1..
suffix once (the 1016 flows of a k=8 fat-tree incast share 390), drop
fractions are computed only on overflowing links, and when the one
overflowing link lies on every route (an incast bottleneck) loss
pressure and goodput take its drop fraction as a scalar.  On that
incast (768 links) one coupling step of about 24 substeps costs about
1.5 ms on a 2-vCPU x86-64 host (1.7 ms without suffix sharing), with
floats bit-identical to a dense ``np.add.reduceat`` step.

All invalid-parameter failures raise
:class:`~repro.errors.ProtocolError` (never a bare ``ValueError``), so
callers can guard fluid runs with the package-wide exception hierarchy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ProtocolError
from repro.numeric import pairwise_sum

__all__ = ["FluidParams", "FluidResult", "FastParams", "simulate_fluid",
           "FluidFabric"]

#: Start stagger of :func:`simulate_fluid`'s flows: flow *k* starts at
#: ``k * STAGGER_S`` seconds.
STAGGER_S = 0.5

#: Longest route :class:`FluidFabric` sums through its hop table.
_TABLE_HOPS = 8


@dataclass(frozen=True)
class FluidParams:
    """Inputs to the fluid model."""

    bottleneck_bps: float       # payload rate of the bottleneck circuit
    base_rtt_s: float           # propagation + fixed processing
    mss: int                    # segment payload bytes
    max_window_bytes: float     # socket-buffer cap on the window
    queue_packets: int = 1024   # bottleneck drop-tail queue
    initial_window_segments: float = 2.0
    ssthresh_segments: float = float("inf")

    def __post_init__(self) -> None:
        if self.bottleneck_bps <= 0 or self.base_rtt_s <= 0:
            raise ProtocolError("bottleneck rate and RTT must be positive")
        if self.mss <= 0:
            raise ProtocolError("MSS must be positive")
        if self.max_window_bytes <= 0:
            raise ProtocolError("window cap must be positive")
        if self.queue_packets < 1:
            raise ProtocolError("queue must hold at least one packet")

    @property
    def capacity_pps(self) -> float:
        """Bottleneck service rate in segments/s."""
        return self.bottleneck_bps / (8.0 * self.mss)


@dataclass(frozen=True)
class FluidResult:
    """Time series and aggregates of one fluid run.

    Attributes
    ----------
    time_s:
        Sample instants, shape ``(steps,)``; the spacing follows the
        effective RTT (a quarter of it per step).
    window_segments:
        Congestion windows in segments: shape ``(steps,)`` for one
        flow, ``(steps, n_flows)`` for several, with 0.0 for a flow that
        has not started yet.
    queue_packets:
        Bottleneck queue occupancy at each sample.
    throughput_bps:
        Aggregate served payload rate at each sample.
    losses:
        Loss events over the run (each halves exactly one flow's window:
        the largest).
    mean_throughput_bps:
        Mean of ``throughput_bps`` over the post-``warmup_s`` samples
        (all samples when the warm-up excludes everything).
    fairness:
        Jain's fairness index over the flows' post-warm-up mean windows:
        1.0 for an even split (and for one flow), ``1/n_flows`` when one
        flow holds everything.
    """

    time_s: np.ndarray
    window_segments: np.ndarray
    queue_packets: np.ndarray
    throughput_bps: np.ndarray
    losses: int
    mean_throughput_bps: float
    fairness: float


@dataclass(frozen=True)
class FastParams:
    """FAST TCP controller constants.

    The Caltech co-authors of this paper followed the 2003 record with
    FAST TCP, which takes queueing *delay* rather than loss as its
    congestion signal and holds the window at

        w  <-  min(2w, (1 - gamma) * w + gamma * (baseRTT/RTT * w + alpha))

    so it needs no Table 1 recovery: with no multiplicative decrease in
    steady state it re-converges at once after a loss.

    Attributes
    ----------
    alpha_packets:
        Target number of this flow's packets queued at the bottleneck
        (FAST's fairness/throughput knob).
    gamma:
        Update smoothing (0 < gamma <= 1).
    """

    alpha_packets: float = 200.0
    gamma: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha_packets <= 0:
            raise ProtocolError("alpha must be positive")
        if not 0 < self.gamma <= 1:
            raise ProtocolError("gamma must be in (0, 1]")


def simulate_fluid(params: FluidParams, duration_s: float,
                   warmup_s: float = 0.0,
                   force_loss_at_s: Optional[float] = None,
                   fast: Optional[FastParams] = None,
                   n_flows: int = 1) -> FluidResult:
    """Iterate the fluid model for ``duration_s``.

    ``force_loss_at_s`` injects one loss event at the given time — the
    Table 1 experiment (recovery from a single packet loss).
    ``warmup_s`` excludes the slow-start ramp from the mean throughput.
    The window follows Reno's AIMD law, or FAST's delay law when
    ``fast`` is given; a loss halves either.

    ``n_flows`` parallel flows share the bottleneck — the Internet2
    LSR's multi-stream category (the paper's record "smashed both"), the
    practical workaround for Table 1's recovery times: each flow needs
    only 1/N of the window, so a loss halves 1/N of the aggregate and
    regrows N times faster.  ``max_window_bytes`` is then the *per-flow*
    cap, flow *k* starts at ``k * STAGGER_S`` to desynchronise slow
    start, and a loss hits the flow with the largest window (the one
    overdriving the queue; the first of them on a tie).
    """
    if n_flows < 1:
        raise ProtocolError("need at least one flow")
    if duration_s <= 0:
        raise ProtocolError("duration must be positive")
    base_rtt = params.base_rtt_s
    cap_w = params.max_window_bytes / params.mss
    c_pps = params.capacity_pps
    rate_cap = 4.0 * c_pps
    q_cap = float(params.queue_packets)
    bps_per_pps = params.mss * 8.0

    # time steps of base_rtt / 4 keep queue dynamics smooth
    max_steps = int(duration_s / (base_rtt / 4.0)) + 2
    t: List[float] = []
    w: List = []
    q: List[float] = []
    thr: List[float] = []

    w_now = [min(params.initial_window_segments, cap_w)] * n_flows
    ssthresh = [params.ssthresh_segments] * n_flows
    idle = [0.0] * n_flows
    started = 0
    q_now = 0.0
    losses = 0
    forced_pending = force_loss_at_s is not None
    now = 0.0
    i = 0
    while now < duration_s and i < max_steps:
        while started < n_flows and now >= started * STAGGER_S:
            started += 1
        rtt_eff = base_rtt + q_now / c_pps
        dt = rtt_eff / 4.0
        if n_flows == 1:              # the single-stream runs skip the lists
            rate_pps = min(w_now[0] / rtt_eff, rate_cap)
            w.append(w_now[0])
        else:
            on = w_now[:started] + idle[started:]
            rate_pps = min(pairwise_sum([x / rtt_eff for x in on]),
                           rate_cap)
            w.append(on)
        # queue integrates the excess arrival
        q_now = max(0.0, q_now + (rate_pps - c_pps) * dt)
        served_pps = min(rate_pps, c_pps) if q_now <= 0 else c_pps
        t.append(now)
        q.append(min(q_now, q_cap))
        thr.append(served_pps * bps_per_pps)

        lost = q_now > q_cap
        if forced_pending and now >= force_loss_at_s:
            lost = True
            forced_pending = False
        if lost:
            losses += 1
            k = max(range(started), key=w_now.__getitem__)
            ssthresh[k] = max(w_now[k] / 2.0, 2.0)
            w_now[k] = ssthresh[k]
            q_now = min(q_now, q_cap)
        else:
            # growth per dt, scaled from per-RTT increments
            frac = dt / rtt_eff
            for k in range(started):
                wk = w_now[k]
                if fast is not None:
                    # FAST: move toward the delay law's window at its pace
                    target = (base_rtt / rtt_eff) * wk + fast.alpha_packets
                    w_next = min(2.0 * wk, (1.0 - fast.gamma) * wk
                                 + fast.gamma * target)
                    wk = wk + (w_next - wk) * frac
                elif wk < ssthresh[k]:
                    wk += wk * frac            # slow start: x2 per RTT
                else:
                    wk += 1.0 * frac           # avoidance: +1 per RTT
                w_now[k] = min(wk, cap_w)
        now += dt
        i += 1

    time_s, windows = np.array(t), np.array(w)
    queue, thr_bps = np.array(q), np.array(thr)
    mask = time_s >= warmup_s
    if not mask.any():
        mask[:] = True
    mean = float(thr_bps[mask].mean())
    fairness = 1.0
    if n_flows > 1:
        mean_w = windows[mask].mean(axis=0)
        denom = n_flows * float((mean_w ** 2).sum())
        if denom > 0:
            fairness = float(mean_w.sum() ** 2 / denom)
    return FluidResult(time_s=time_s, window_segments=windows,
                       queue_packets=queue, throughput_bps=thr_bps,
                       losses=losses, mean_throughput_bps=mean,
                       fairness=fairness)


class FluidFabric:
    """Steppable, vectorised N-flow fluid model over a fabric of links.

    Where :func:`simulate_fluid` runs to completion against a single
    bottleneck, a :class:`FluidFabric` holds *per-link* NumPy
    state (queue occupancy, capacity, drop-tail limit) for an arbitrary
    directed fabric and advances it one :meth:`step` at a time, so a
    discrete-event simulation can interleave with it on a coarse tick
    (the hybrid fluid+DES mode of :mod:`repro.net.hybrid`):

    * the DES injects its measured foreground rates via
      :meth:`set_cross_traffic` — fluid flows then compete for the
      *remaining* capacity of every link;
    * after each step the DES reads :attr:`link_utilization` (fluid
      share of each link) and :attr:`link_drop_prob` (fluid-induced
      overflow probability) and applies them to its own queues — the
      conservative half of the handoff.

    Flow dynamics are the module's AIMD arithmetic over arrays of
    flows: rate = W/RTT_eff with RTT_eff = base RTT + sum of queueing
    delays along the route; losses are modelled by per-flow *loss
    pressure* (expected dropped packets integrated along the route) — a
    flow halves when its pressure reaches one packet, which
    desynchronises the flows the way per-flow drop-tail hits do.

    The step kernel exploits how sparse congestion is and how much
    routes overlap: route sums read a padded hop table of link indices
    and sum each distinct hop-1.. suffix once for all the flows that
    share it, drop fractions are computed only on overflowing links, a
    single overflowing link that every route crosses (an incast
    bottleneck) skips the drop route sum, and halving touches only the
    flows whose pressure reached one packet.  Its floats are
    bit-identical to a dense evaluation with ``np.add.reduceat`` route
    sums.  The per-link results (:attr:`link_utilization`,
    :attr:`link_drop_prob`) are arrays; a caller that feeds them to a
    DES should convert the values it uses to Python floats.

    Parameters
    ----------
    link_capacity_pps:
        Per-link service rate in packets/s, shape ``(L,)``; positive
        and finite.
    link_queue_packets:
        Per-link drop-tail queue limit in packets, shape ``(L,)``.
    routes:
        One link-index sequence per flow (each non-empty and crossing
        any link at most once; indices into the link arrays) — e.g.
        from :meth:`repro.net.fabric.FabricTopology.route`.
    base_rtt_s:
        Propagation+processing RTT per flow: scalar or shape ``(n,)``;
        positive and finite.
    mss:
        Segment payload bytes (shared by all flows).
    max_window_segments:
        Socket-buffer window cap per flow: scalar or shape ``(n,)``.
    start_times:
        Optional per-flow start instants (seconds, relative to the
        fabric's clock); flows are idle before their start.
    """

    def __init__(self, link_capacity_pps: Sequence[float],
                 link_queue_packets: Sequence[float],
                 routes: Sequence[Sequence[int]],
                 base_rtt_s,
                 mss: int,
                 max_window_segments,
                 start_times: Optional[Sequence[float]] = None,
                 initial_window_segments: float = 2.0):
        # comparisons are written so that NaN fails them
        cap = np.asarray(link_capacity_pps, dtype=float)
        qcap = np.asarray(link_queue_packets, dtype=float)
        if cap.ndim != 1 or cap.size == 0:
            raise ProtocolError("need at least one link")
        if not np.all((cap > 0) & (cap < np.inf)):
            raise ProtocolError("link capacities must be positive and finite")
        if qcap.shape != cap.shape or not np.all(qcap >= 1):
            raise ProtocolError("every link queue must hold at least one packet")
        if not routes:
            raise ProtocolError("need at least one flow")
        if not 0 < mss < math.inf:
            raise ProtocolError("MSS must be positive and finite")
        n = len(routes)
        L = cap.size
        lens = np.array([len(r) for r in routes], dtype=np.intp)
        if np.any(lens == 0):
            raise ProtocolError("every flow needs a non-empty route")
        link_of = np.concatenate([np.asarray(r, dtype=np.intp)
                                  for r in routes])
        if link_of.min() < 0 or link_of.max() >= L:
            raise ProtocolError("route refers to an unknown link index")
        if any(len(set(r)) != len(r) for r in routes):
            raise ProtocolError("a route may not cross the same link twice")
        flow_of = np.repeat(np.arange(n, dtype=np.intp), lens)
        # routes are loop-free, so a link crossed n times is on every route
        self._link_count = np.bincount(link_of, minlength=L).tolist()
        self.n_flows = n
        self.n_links = L
        self.mss = int(mss)
        self._cap = cap
        self._qcap = qcap
        # (link, flow) pairs in flow order: the order bincount sums in;
        # np.repeat(per_flow, lens) lays a per-flow value out along them
        self._link_of = link_of
        self._lens = lens
        # reduceat offsets: start of each flow's slice in link_of
        self._offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
        # Padded hop x flow table of link indices; link L is a padding
        # link whose per-link value is always 0.  Summing its rows as
        # row0 + ((row1 + row2) + ...) gives the floats of reduceat,
        # which adds a route's later hops in order and then the first,
        # for routes of up to _TABLE_HOPS hops; numpy sums longer ones
        # pairwise, so they keep reduceat itself.  Flows that share
        # hops 1.. (all flows into one server, say) share that suffix
        # sum: it is computed once per distinct suffix, with the same
        # operations in the same order, so the floats do not change.
        self._first: Optional[np.ndarray] = None
        if lens.max() <= _TABLE_HOPS:
            hops = np.full((max(2, int(lens.max())), n), L, dtype=np.intp)
            hops[np.arange(link_of.size) - np.repeat(self._offsets, lens),
                 flow_of] = link_of
            suffixes, suffix_of = np.unique(hops[1:].T, axis=0,
                                            return_inverse=True)
            self._first = hops[0]
            # hop x suffix table, and each flow's suffix
            self._suffixes = np.ascontiguousarray(suffixes.T)
            self._suffix_of = suffix_of.reshape(n)
        base = np.broadcast_to(np.asarray(base_rtt_s, dtype=float), (n,)).copy()
        if not np.all((base > 0) & (base < np.inf)):
            raise ProtocolError("base RTT must be positive and finite")
        wmax = np.broadcast_to(np.asarray(max_window_segments, dtype=float),
                               (n,)).copy()
        if not np.all(wmax > 0):
            raise ProtocolError("window cap must be positive")
        if not initial_window_segments > 0:
            raise ProtocolError("initial window must be positive")
        self._base_rtt = base
        self._half_min_rtt = base.min() / 2.0
        self._wmax = wmax
        self._start = (np.zeros(n) if start_times is None
                       else np.asarray(start_times, dtype=float).copy())
        if self._start.shape != (n,) or not np.all(self._start >= 0):
            raise ProtocolError("start times must be one non-negative value "
                                "per flow")
        self._last_start = float(self._start.max())
        self._w = np.minimum(np.full(n, float(initial_window_segments)), wmax)
        self._ssthresh = np.full(n, np.inf)
        self._pressure = np.zeros(n)
        self._q = np.zeros(L)
        self._cross = np.zeros(L)
        # per-link values indexed by the hop table, padding link last
        self._qdelay = np.zeros(L + 1)
        self._drop = np.zeros(L + 1)
        # per-flow scratch for the step kernel
        self._rtt = np.empty(n)
        self._rates = np.empty(n)
        self._grow = np.empty(n)
        self._bits = np.empty(n)
        self._slow = np.empty(n, dtype=bool)
        self.now = 0.0
        self.losses = 0
        self.delivered_bits = np.zeros(n)
        # per-step diagnostics consumed by the DES coupler
        self.link_arrival_pps = np.zeros(L)
        self.link_utilization = np.zeros(L)
        self.link_drop_prob = np.zeros(L)

    # -- DES handoff --------------------------------------------------------
    def set_cross_traffic(self, pps: Sequence[float]) -> None:
        """Install the DES foreground rate (packets/s) per link.

        Fluid flows see ``capacity - cross`` as the service rate of each
        link until the next call — the conservative sharing rule: the
        packet-level traffic is real, the fluid traffic yields.
        Negative rates count as zero; NaN and infinite ones are refused.
        """
        cross = np.asarray(pps, dtype=float)
        if cross.shape != (self.n_links,):
            raise ProtocolError(
                f"cross traffic needs one rate per link "
                f"({self.n_links}), got shape {cross.shape}")
        if not np.all(np.isfinite(cross)):
            raise ProtocolError("cross traffic rates must be finite")
        np.maximum(cross, 0.0, out=self._cross)

    @property
    def queue_packets(self) -> np.ndarray:
        """Current fluid queue occupancy per link (packets).

        A live view: :meth:`step` updates it in place, so copy it to
        keep a snapshot."""
        return self._q

    @property
    def windows_segments(self) -> np.ndarray:
        """Current per-flow congestion windows (segments).

        A live view: :meth:`step` updates it in place, so copy it to
        keep a snapshot."""
        return self._w

    def aggregate_delivered_bits(self) -> float:
        """Total payload bits delivered by all fluid flows so far."""
        return float(self.delivered_bits.sum())

    # -- dynamics -----------------------------------------------------------
    def _route_sum(self, per_link: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Sum ``per_link`` (one value per link, then the padding link's
        0) along every route into ``out``; the floats of
        ``np.add.reduceat(per_link[link_of], offsets)``."""
        first = self._first
        if first is None:
            out[:] = np.add.reduceat(per_link[self._link_of], self._offsets)
            return out
        g = per_link[self._suffixes]
        rest = g[0]
        for row in g[1:]:
            rest += row
        return np.add(per_link[first], rest[self._suffix_of], out=out)

    def step(self, dt: float) -> None:
        """Advance the fluid state by ``dt`` seconds.

        Internally substeps at ~half the smallest base RTT so window
        growth and queue integration stay smooth however coarse the
        coupling tick is.
        """
        if not 0.0 < dt < math.inf:
            raise ProtocolError("step duration must be positive and finite")
        substeps = max(1, int(np.ceil(dt / self._half_min_rtt)))
        sub = dt / substeps
        n, L, mss = self.n_flows, self.n_links, self.mss
        cap, qcap, q = self._cap, self._qcap, self._q
        base, wmax, w = self._base_rtt, self._wmax, self._w
        ssthresh, pressure = self._ssthresh, self._pressure
        link_of, lens, link_count = (self._link_of, self._lens,
                                     self._link_count)
        qdelay, drop = self._qdelay, self._drop
        rtt, rates, grow, bits, slow = (self._rtt, self._rates, self._grow,
                                        self._bits, self._slow)
        free = np.maximum(cap - self._cross, 0.02 * cap)
        arr_acc = np.zeros(L)
        drop_acc = np.zeros(L)
        no_flows = lens[:0]
        qdelay_links = qdelay[:L]
        for _ in range(substeps):
            # until every flow has started, idle flows send nothing and
            # keep their window (w + 0 is w, already within wmax)
            ramp = self.now < self._last_start
            if ramp:
                active = self._start <= self.now
            np.divide(q, cap, out=qdelay_links)
            self._route_sum(qdelay, rtt)
            rtt += base
            np.divide(w, rtt, out=rates)
            if ramp:
                rates *= active
            arrivals = np.bincount(link_of, weights=np.repeat(rates, lens),
                                   minlength=L)
            arr_acc += arrivals
            queued = arrivals - free
            queued *= sub
            q += queued
            np.maximum(q, 0.0, out=q)
            # Drop-tail overflow.  A flow's loss pressure grows by
            # rate * sub * (sum of its route's drop fractions) and its
            # goodput is cut by that sum; when one overflowing link lies
            # on every route, that sum is its drop fraction p for every
            # flow.  `bits` gets goodput * mss.
            over = (q > qcap).nonzero()[0]
            halved = no_flows
            if over.size == 0:
                np.multiply(rates, mss, out=bits)
            elif over.size == 1 and link_count[over.item()] == n:
                link = over.item()
                excess = q.item(link) - qcap.item(link)
                q[link] = qcap[link]
                p = min(excess / max(arrivals.item(link) * sub, 1e-12), 0.95)
                drop_acc[link] += p
                np.multiply(rates, sub, out=grow)
                grow *= p
                pressure += grow
                halved = (pressure >= 1.0).nonzero()[0]
                np.multiply(rates, 1.0 - p, out=bits)
                bits *= mss
            else:
                excess = q[over] - qcap[over]
                q[over] = qcap[over]
                p = excess / np.maximum(arrivals[over] * sub, 1e-12)
                np.minimum(p, 0.95, out=p)
                drop_acc[over] += p
                drop[over] = p
                psum = self._route_sum(drop, bits)
                drop[over] = 0.0
                np.multiply(rates, sub, out=grow)
                grow *= psum
                pressure += grow
                halved = (pressure >= 1.0).nonzero()[0]
                np.subtract(1.0, psum, out=bits)
                np.maximum(bits, 0.0, out=bits)
                bits *= rates
                bits *= mss
            bits *= 8.0 * sub
            self.delivered_bits += bits
            # A flow halves when its pressure reaches one packet; every
            # pressure that did not just grow is still below one.
            if halved.size:
                self.losses += halved.size
                halved_w = w[halved] / 2.0
                np.maximum(halved_w, 2.0, out=halved_w)
                ssthresh[halved] = halved_w
                pressure[halved] = 0.0
            # growth per substep: x2 per RTT in slow start, +1 in avoidance
            np.divide(sub, rtt, out=grow)
            np.less(w, ssthresh, out=slow)
            np.multiply(w, grow, out=grow, where=slow)
            if ramp:
                grow *= active
            w += grow
            np.minimum(w, wmax, out=w)
            if halved.size:
                w[halved] = halved_w
            self.now += sub
        self.link_arrival_pps = arr_acc / substeps
        served = np.minimum(self.link_arrival_pps, free)
        self.link_utilization = np.minimum(np.maximum(served / cap, 0.0),
                                           0.95)
        self.link_drop_prob = np.minimum(
            np.maximum(drop_acc / substeps, 0.0), 0.95)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FluidFabric flows={self.n_flows} links={self.n_links} "
                f"now={self.now:.6f}>")
