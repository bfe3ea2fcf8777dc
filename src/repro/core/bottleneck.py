"""§3.5.2: where does the missing bandwidth go?

The paper's bottleneck hunt runs four probes, all reproduced here:

1. **Receive vs transmit path** — aggregate many GbE flows *into* one
   10GbE adapter, then *out of* it; the two directions turn out
   statistically equal (receive benefits from interrupt coalescing of
   bursty multi-host arrivals).
2. **Dual adapters on independent buses** — statistically identical to
   one adapter, ruling out the PCI-X bus and the adapter itself.
3. **Memory bandwidth** — STREAM across platforms: the GC-HE's ~50%
   extra bandwidth buys no network throughput.
4. **Kernel packet generator** — 5.5 Gb/s single-copy ceiling; observed
   TCP is ~75% of it, consistent with host data movement (not CPU
   cycles, not the bus) being the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.presets import GBE_HOST, HostSpec, PE2650, PE4600, INTEL_E7505
from repro.net.topology import BackToBack, MultiFlow
from repro.sim.engine import Environment
from repro.tcp.connection import TcpConnection, steady_goodput_bps
from repro.tcp.pktgen import PktgenResult, pktgen_run
from repro.tools.stream_bench import StreamResult, stream_bench
from repro.units import Gbps

__all__ = ["BottleneckStudy", "AggregateResult"]


@dataclass(frozen=True)
class AggregateResult:
    """Aggregate goodput of a multi-flow run."""

    direction: str
    n_flows: int
    n_adapters: int
    aggregate_bps: float
    per_flow_bps: Sequence[float]

    @property
    def aggregate_gbps(self) -> float:
        """Total goodput in Gb/s."""
        return self.aggregate_bps / 1e9


class BottleneckStudy:
    """Run the §3.5.2 decomposition."""

    def __init__(self, server_spec: HostSpec = PE2650,
                 duration_s: float = 0.02,
                 n_clients: int = 8,
                 calibration: Calibration = DEFAULT_CALIBRATION):
        if n_clients < 1:
            raise MeasurementError("need at least one client")
        self.server_spec = server_spec
        self.duration_s = duration_s
        self.n_clients = n_clients
        self.calibration = calibration
        self.config = TuningConfig.oversized_windows(mtu=9000)

    # -- multi-flow probes -----------------------------------------------------
    def _aggregate(self, direction: str, n_adapters: int) -> AggregateResult:
        env = Environment()
        topo = MultiFlow.create(
            env, self.config, n_clients=self.n_clients,
            server_spec=self.server_spec,
            n_server_adapters=n_adapters,
            calibration=self.calibration)
        conns: List[TcpConnection] = []
        for i, client in enumerate(topo.clients):
            adapter = topo.server_adapters[i % n_adapters]
            if direction == "rx":
                conns.append(TcpConnection(env, client, topo.server,
                                           dst_nic=adapter))
            else:
                conns.append(TcpConnection(env, topo.server, client,
                                           src_nic=adapter))
        per_flow = steady_goodput_bps(env, conns, 65536,
                                      warmup_s=self.duration_s * 0.5,
                                      window_s=self.duration_s)
        return AggregateResult(direction=direction, n_flows=len(conns),
                               n_adapters=n_adapters,
                               aggregate_bps=float(sum(per_flow)),
                               per_flow_bps=per_flow)

    def receive_path(self) -> AggregateResult:
        """GbE clients transmit into one 10GbE server adapter."""
        return self._aggregate("rx", n_adapters=1)

    def transmit_path(self) -> AggregateResult:
        """The server transmits out to the GbE clients."""
        return self._aggregate("tx", n_adapters=1)

    def dual_adapters(self) -> AggregateResult:
        """Clients split across two server adapters on independent buses."""
        return self._aggregate("rx", n_adapters=2)

    # -- supporting probes -----------------------------------------------------
    def stream_comparison(self) -> Dict[str, StreamResult]:
        """STREAM on the three platforms §3.5.2 compares."""
        return {spec.name: stream_bench(spec)
                for spec in (PE2650, PE4600, INTEL_E7505)}

    def pktgen_ceiling(self, packets: int = 2048) -> PktgenResult:
        """The kernel packet generator on the server platform."""
        env = Environment()
        bb = BackToBack.create(env, self.config, spec=self.server_spec,
                               calibration=self.calibration)
        bb.b.set_default_handler(lambda skb: None)
        return pktgen_run(env, bb.a, dst_address="hostB.eth0",
                          packet_bytes=8160, packets=packets)

    def single_flow(self, payload: int = 8108) -> float:
        """Reference tuned single-flow goodput (bps)."""
        from repro.tools.nttcp import nttcp_run
        env = Environment()
        config = TuningConfig.fully_tuned(8160)
        bb = BackToBack.create(env, config, spec=self.server_spec,
                               calibration=self.calibration)
        conn = TcpConnection(env, bb.a, bb.b)
        return nttcp_run(env, conn, payload, 1024).goodput_bps
