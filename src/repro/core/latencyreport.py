"""The latency study: Figures 6 and 7.

NetPipe ping-pong latency versus payload size (1 B .. 1024 B), back to
back and through the switch, with and without interrupt coalescing.
Paper numbers: 19 µs back-to-back / 25 µs through the switch with the
5 µs coalescing delay, rising ~20% over the payload range (23 µs /
28 µs at 1024 B); disabling coalescing "trivially shaves off" 5 µs,
down to 14 µs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.presets import HostSpec, PE2650
from repro.net.topology import BackToBack, ThroughSwitch
from repro.sim.engine import Environment
from repro.sim.pool import sweep
from repro.tcp.connection import TcpConnection
from repro.tools.netpipe import NetpipeResult, netpipe_latency

__all__ = ["LatencyStudy", "LatencyCurve", "DEFAULT_LATENCY_PAYLOADS"]


def _latency_point(task) -> NetpipeResult:
    """One ping-pong measurement on a fresh testbed (module-level for
    the parallel runner)."""
    spec, calibration, config, through_switch, payload, iterations = task
    env = Environment()
    if through_switch:
        topo = ThroughSwitch.create(env, config, spec=spec,
                                    calibration=calibration)
    else:
        topo = BackToBack.create(env, config, spec=spec,
                                 calibration=calibration)
    forward = TcpConnection(env, topo.a, topo.b)
    backward = TcpConnection(env, topo.b, topo.a)
    return netpipe_latency(env, forward, backward, payload, iterations)

#: Fig. 6/7 x-axis: single bytes up to 1 KB.
DEFAULT_LATENCY_PAYLOADS = (1, 2, 4, 8, 16, 32, 64, 128, 192, 256, 384,
                            512, 640, 768, 896, 1024)


@dataclass
class LatencyCurve:
    """Latency vs payload under one configuration/topology."""

    label: str
    through_switch: bool
    coalescing_us: float
    points: List[NetpipeResult] = field(default_factory=list)

    @property
    def payloads(self) -> np.ndarray:
        """Payload sizes."""
        return np.array([p.payload for p in self.points])

    @property
    def latencies_us(self) -> np.ndarray:
        """One-way latencies (µs)."""
        return np.array([p.latency_us for p in self.points])

    @property
    def base_latency_us(self) -> float:
        """Latency at the smallest payload."""
        if not self.points:
            raise MeasurementError(f"curve {self.label!r} has no points")
        return float(self.latencies_us[0])

    @property
    def growth_fraction(self) -> float:
        """Relative increase from the smallest to the largest payload
        (the paper reports ~20% over 1 B .. 1024 B)."""
        lat = self.latencies_us
        return float(lat[-1] / lat[0] - 1.0)


class LatencyStudy:
    """Regenerates Figures 6 and 7."""

    def __init__(self, spec: HostSpec = PE2650, iterations: int = 8,
                 calibration: Calibration = DEFAULT_CALIBRATION):
        self.spec = spec
        self.iterations = iterations
        self.calibration = calibration

    def measure(self, coalescing_us: float = 5.0,
                through_switch: bool = False,
                payloads: Sequence[int] = DEFAULT_LATENCY_PAYLOADS,
                mtu: int = 1500) -> LatencyCurve:
        """One latency-vs-payload curve."""
        config = TuningConfig(
            mtu=mtu, mmrbc=4096, smp_kernel=False,
            interrupt_coalescing_us=coalescing_us)
        curve = LatencyCurve(
            label=("switch" if through_switch else "back-to-back")
            + f", coalesce={coalescing_us:g}us",
            through_switch=through_switch,
            coalescing_us=coalescing_us)
        tasks = [(self.spec, self.calibration, config, through_switch,
                  payload, self.iterations) for payload in payloads]
        curve.points.extend(sweep(_latency_point, tasks,
                                  cache_ns="netpipe-latency"))
        return curve
