"""The benchmark's four workloads, their seeded inputs and output checks.

Each workload is a fixed batch of operations run as a closed loop: one
simulation at a time, in this process, on one thread, with no result
cache.  An operation is one NTTCP transfer, one ping-pong latency point
or one whole fabric/WAN run; it fails when it raises or when its output
check fails.  Seed 0 is the paper's grid in the paper's order; other
seeds permute the inputs as each workload describes, never changing the
amount of work or the headline numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from clock import SpeedClock
from repro.config import TuningConfig
from repro.core.latencyreport import DEFAULT_LATENCY_PAYLOADS
from repro.core.wanrecord import WanRecordRun
from repro.net.fabric import build_fat_tree
from repro.net.hybrid import FabricSimulation, incast_pairs
from repro.net.topology import BackToBack, ThroughSwitch
from repro.sim.engine import Environment
from repro.tcp.connection import TcpConnection
from repro.tcp.mss import mss_for_mtu
from repro.tools.netpipe import netpipe_latency
from repro.tools.nttcp import default_payloads, nttcp_run

#: The relative tolerance tests/integration/test_paper_results.py asserts
#: on the paper's headline numbers.
PAPER_TOLERANCE = 0.15

#: paper_rel_err of a workload with no paper reference: the whole value
#: is unvalidated.
UNVALIDATED_ERR = 1.0

Record = Dict[str, Any]


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _exact(value: float) -> str:
    """Floats enter digests by repr, so any bit change shows."""
    return repr(float(value))


def digest(records: List[Record]) -> str:
    """sha256 of a pass's simulated output."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Workload:
    """A named batch of operations built from a seed."""

    name = ""
    #: headline name -> paper value
    paper: Dict[str, float] = {}

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def inputs(self) -> Dict[str, Any]:
        """The generated inputs (what the seed decides)."""
        raise NotImplementedError

    def operations(self) -> List[Callable[[], Record]]:
        """One callable per operation, in execution order."""
        raise NotImplementedError

    def headline(self, records: List[Record]) -> Dict[str, float]:
        """The workload's headline simulated numbers, keyed like
        :attr:`paper`."""
        raise NotImplementedError

    def warmup(self) -> None:
        """One small operation that finishes lazy imports and
        module-level initialisation before anything is timed."""
        raise NotImplementedError

    def paper_rel_err(self, records: List[Record]) -> Tuple[float, int]:
        """Largest relative error against the paper, and how many
        headline numbers fall outside :data:`PAPER_TOLERANCE`."""
        if not self.paper:
            return UNVALIDATED_ERR, 0
        got = self.headline(records)
        errs = [abs(got[k] - ref) / ref for k, ref in self.paper.items()]
        # Tiny smoke inputs are not expected to reproduce the paper.
        outside = 0 if self.smoke else sum(e > PAPER_TOLERANCE for e in errs)
        return max(errs), outside


# ---------------------------------------------------------------------------
# lan_sweep: Fig. 3 NTTCP payload sweep
# ---------------------------------------------------------------------------

def _lan_point(mtu: int, payload: int, count: int) -> Record:
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.stock(mtu))
    conn = TcpConnection(env, bb.a, bb.b)
    r = nttcp_run(env, conn, payload, count)
    delivered = conn.receiver.bytes_delivered
    if delivered != payload * count:
        raise CheckFailed(f"mtu {mtu} payload {payload}: delivered "
                          f"{delivered} != {payload * count}")
    return {"mtu": mtu, "payload": payload, "count": count,
            "delivered": delivered, "elapsed_s": _exact(r.elapsed_s),
            "goodput_bps": _exact(r.goodput_bps),
            "sender_load": _exact(r.sender_load),
            "receiver_load": _exact(r.receiver_load),
            "retransmissions": r.retransmissions}


class LanSweep(Workload):
    """Fig. 3: stock TCP at 1500 and 9000 MTU, the quick payload grid,
    768 writes per point, back to back."""

    name = "lan_sweep"
    paper = {"fig3_peak_1500_gbps": 1.8, "fig3_peak_9000_gbps": 2.7}
    MTUS = (1500, 9000)

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.count = 16 if smoke else 768
        points = []
        for mtu in self.MTUS:
            mss = mss_for_mtu(mtu, TuningConfig.stock(mtu).tcp_timestamps)
            grid = default_payloads(mss, points=10)
            points += [(mtu, p) for p in (grid[:2] if smoke else grid)]
        # The seed permutes the sweep order.  Shifting the payload
        # values instead moves the jagged Fig. 3 peak (0.087 -> 0.119
        # relative error on one seed), which would read as run-to-run
        # spread in paper_rel_err.
        if seed:
            random.Random(seed).shuffle(points)
        self.points: List[Tuple[int, int]] = points

    def inputs(self) -> Dict[str, Any]:
        return {"count": self.count, "points": self.points}

    def operations(self) -> List[Callable[[], Record]]:
        return [lambda m=mtu, p=payload: _lan_point(m, p, self.count)
                for mtu, payload in self.points]

    def headline(self, records: List[Record]) -> Dict[str, float]:
        return {f"fig3_peak_{mtu}_gbps":
                max(float(r["goodput_bps"]) for r in records
                    if r.get("mtu") == mtu) / 1e9
                for mtu in self.MTUS}

    def warmup(self) -> None:
        _lan_point(1500, 1448, 8)


# ---------------------------------------------------------------------------
# latency_pingpong: Fig. 6/7 NetPIPE curves
# ---------------------------------------------------------------------------

def _latency_point(coalesce_us: float, switch: bool, payload: int,
                   iterations: int) -> Record:
    config = TuningConfig(mtu=1500, mmrbc=4096, smp_kernel=False,
                          interrupt_coalescing_us=coalesce_us)
    env = Environment()
    topo = (ThroughSwitch if switch else BackToBack).create(env, config)
    forward = TcpConnection(env, topo.a, topo.b)
    backward = TcpConnection(env, topo.b, topo.a)
    r = netpipe_latency(env, forward, backward, payload, iterations)
    expect = payload * iterations
    for conn in (forward, backward):
        if conn.receiver.bytes_delivered != expect:
            raise CheckFailed(
                f"ping-pong payload {payload}: delivered "
                f"{conn.receiver.bytes_delivered} != {expect}")
    if not (math.isfinite(r.latency_s) and r.latency_s > 0):
        raise CheckFailed(f"ping-pong payload {payload}: latency "
                          f"{r.latency_s!r}")
    return {"coalesce_us": coalesce_us, "switch": switch,
            "payload": payload, "iterations": iterations,
            "rtt_s": _exact(r.rtt_s)}


class LatencyPingpong(Workload):
    """Figs. 6/7: NetPIPE ping-pong on the full 16-payload grid, back to
    back and through the switch, coalescing at 0 and 5 us: 64 fresh
    topologies."""

    name = "latency_pingpong"
    paper = {"fig6_base_b2b_us": 19.0, "fig6_base_switch_us": 25.0,
             "fig7_base_off_us": 14.0}
    #: (coalescing delay in us, through the switch)
    CURVES = ((5.0, False), (5.0, True), (0.0, False), (0.0, True))

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        # 40 round trips per point stretch the pass to seconds; the mean
        # over the steady round trips does not depend on the count.
        self.iterations = 2 if smoke else 40
        payloads = (DEFAULT_LATENCY_PAYLOADS[:2] if smoke
                    else DEFAULT_LATENCY_PAYLOADS)
        points = [(co, sw, p) for co, sw in self.CURVES for p in payloads]
        if seed:
            random.Random(seed).shuffle(points)
        self.points: List[Tuple[float, bool, int]] = points

    def inputs(self) -> Dict[str, Any]:
        return {"iterations": self.iterations, "points": self.points}

    def operations(self) -> List[Callable[[], Record]]:
        return [lambda c=co, s=sw, p=payload:
                _latency_point(c, s, p, self.iterations)
                for co, sw, payload in self.points]

    def headline(self, records: List[Record]) -> Dict[str, float]:
        def base_us(coalesce_us: float, switch: bool) -> float:
            point = min((r for r in records
                         if r.get("coalesce_us") == coalesce_us
                         and r.get("switch") == switch),
                        key=lambda r: r["payload"])
            return float(point["rtt_s"]) / 2.0 * 1e6

        return {"fig6_base_b2b_us": base_us(5.0, False),
                "fig6_base_switch_us": base_us(5.0, True),
                "fig7_base_off_us": base_us(0.0, False)}

    def warmup(self) -> None:
        _latency_point(5.0, True, 1, 2)


# ---------------------------------------------------------------------------
# wan_des: the §4 packet-level cross-check
# ---------------------------------------------------------------------------

def _wan_run(duration_s: float) -> Record:
    out = WanRecordRun().run_des_scaled(scale=0.02, duration_s=duration_s)
    if not (math.isfinite(out.throughput_bps) and out.throughput_bps > 0):
        raise CheckFailed(f"WAN throughput {out.throughput_bps!r}")
    return {"duration_s": duration_s, "buffer_bytes": out.buffer_bytes,
            "throughput_bps": _exact(out.throughput_bps),
            "losses": out.losses}


class WanDes(Workload):
    """§4: the packet-level cross-check of the record run at 2% of the
    Sunnyvale-Geneva distance, 0.5 simulated seconds."""

    name = "wan_des"
    paper = {"wan_rate_gbps": 2.38}

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        # The path has no free input for a seed to vary.  Half a
        # simulated second is ~70 round trips past slow start, and
        # reaches the same rate as 2 s (2.379 Gb/s) in a quarter of the
        # host time, so a run fits several passes.
        self.duration_s = 0.1 if smoke else 0.5

    def inputs(self) -> Dict[str, Any]:
        return {"scale": 0.02, "duration_s": self.duration_s}

    def operations(self) -> List[Callable[[], Record]]:
        return [lambda: _wan_run(self.duration_s)]

    def headline(self, records: List[Record]) -> Dict[str, float]:
        return {"wan_rate_gbps": float(records[0]["throughput_bps"]) / 1e9}

    def warmup(self) -> None:
        _wan_run(0.02)


# ---------------------------------------------------------------------------
# fabric_incast: hybrid fluid+DES incast on a k=8 fat-tree
# ---------------------------------------------------------------------------

#: Flows simulated at packet level; the rest advance in the fluid model.
N_FOREGROUND = 8


def _fabric_run(pairs: List[Tuple[str, str]], duration_s: float) -> Record:
    topo = build_fat_tree(8)
    r = FabricSimulation(topo, pairs, n_foreground=N_FOREGROUND,
                         mode="hybrid").run(duration_s=duration_s)
    server = pairs[0][1]
    server_link_bps = sum(link.rate_bps for link in topo.links
                          if link.dst == server)
    agg = r.aggregate_goodput_bps
    if not (math.isfinite(agg) and 0 < agg <= server_link_bps):
        raise CheckFailed(f"incast goodput {agg!r} outside "
                          f"(0, {server_link_bps!r}]")
    return {"flows": len(pairs), "duration_s": duration_s,
            "aggregate_bps": _exact(agg),
            "foreground_bps": _exact(r.foreground_goodput_bps),
            "background_bps": _exact(r.background_goodput_bps),
            "per_flow_bps": [_exact(x) for x in r.per_flow_foreground_bps],
            "foreground_drops": r.foreground_drops,
            "coupled_drops": r.coupled_drops,
            "fluid_losses": r.fluid_losses,
            "coupler_ticks": r.coupler_ticks,
            "events": r.events_scheduled}


class FabricIncast(Workload):
    """1024 flows converging on one host of a k=8 fat-tree, 8 of them at
    packet level and the rest in the fluid model, 0.2 simulated
    seconds.  There is no paper figure to compare against."""

    name = "fabric_incast"
    paper: Dict[str, float] = {}

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        # Shorter smoke runs measure the fluid start-up transient, whose
        # goodput can exceed the server link.
        self.duration_s = 0.02 if smoke else 0.2
        pairs = incast_pairs(build_fat_tree(8), 128 if smoke else 1024)
        if seed:
            # Only the fluid background is permuted: which flows run at
            # packet level sets the DES work, so it stays the same.
            background = pairs[N_FOREGROUND:]
            random.Random(seed).shuffle(background)
            pairs = pairs[:N_FOREGROUND] + background
        self.pairs = pairs

    def inputs(self) -> Dict[str, Any]:
        return {"duration_s": self.duration_s,
                "pairs": [list(p) for p in self.pairs]}

    def operations(self) -> List[Callable[[], Record]]:
        return [lambda: _fabric_run(self.pairs, self.duration_s)]

    def headline(self, records: List[Record]) -> Dict[str, float]:
        return {}

    def warmup(self) -> None:
        _fabric_run(self.pairs[:128], 0.02)


WORKLOADS = {cls.name: cls for cls in
             (LanSweep, LatencyPingpong, WanDes, FabricIncast)}


def make(name: str, seed: int, smoke: bool = False) -> Workload:
    """Build a workload by name."""
    return WORKLOADS[name](seed, smoke)


class PassResult:
    """The outcome of running every operation of a workload once."""

    def __init__(self) -> None:
        self.records: List[Record] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: host seconds, and host seconds at the reference speed
        #: (perfbench/clock.py)
        self.wall_s = 0.0
        self.norm_s = 0.0

    @property
    def digest(self) -> str:
        return digest(self.records)


def run_pass(workload: Workload,
             after_op: Optional[Callable[[], None]] = None,
             normalise: bool = True) -> PassResult:
    """Run every operation once, timing the whole batch.

    ``after_op`` runs after each operation inside the timed batch; the
    traced run reads the layer counters there, so its cost is part of
    the tracing overhead.  ``normalise=False`` leaves the reference
    loop out of the pass (see :class:`clock.SpeedClock`).
    """
    result = PassResult()
    with SpeedClock(normalise=normalise) as clock:
        for op in workload.operations():
            result.attempted += 1
            try:
                result.records.append(op())
            except Exception as exc:  # a failed operation is counted
                result.failed += 1
                result.errors.append(f"{type(exc).__name__}: {exc}")
                result.records.append({"failed": type(exc).__name__})
            if after_op is not None:
                after_op()
    result.wall_s = clock.wall_s
    result.norm_s = clock.norm_s
    return result
