"""The case-study driver: apply the §3.3 ladder, measure every rung.

:class:`CaseStudy` is the reproduction's centrepiece — it regenerates
Figures 3, 4 and 5 and the per-step peak/average numbers of §3.3 from
the simulated testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.presets import HostSpec, PE2650
from repro.core.optimizations import LAN_OPTIMIZATION_LADDER, OptimizationStep
from repro.net.topology import BackToBack
from repro.sim.engine import Environment
from repro.sim.pool import sweep
from repro.tcp.connection import TcpConnection
from repro.tcp.mss import mss_for_mtu
from repro.tools.nttcp import (
    DEFAULT_WRITE_COUNT,
    NttcpResult,
    default_payloads,
    nttcp_run,
)

__all__ = ["CaseStudy", "StepResult", "SweepCurve"]


def _sweep_point(task: Tuple[HostSpec, Calibration, TuningConfig, int, int]
                 ) -> NttcpResult:
    """One NTTCP point on a fresh testbed (module-level so the parallel
    runner can ship it to worker processes)."""
    spec, calibration, config, payload, write_count = task
    env = Environment()
    bb = BackToBack.create(env, config, spec=spec, calibration=calibration)
    conn = TcpConnection(env, bb.a, bb.b)
    return nttcp_run(env, conn, payload, write_count)


@dataclass
class SweepCurve:
    """One NTTCP payload sweep under one configuration."""

    label: str
    config: TuningConfig
    points: List[NttcpResult] = field(default_factory=list)

    @property
    def payloads(self) -> np.ndarray:
        """Payload sizes (bytes)."""
        return np.array([p.payload for p in self.points])

    @property
    def goodputs_gbps(self) -> np.ndarray:
        """Goodput per point (Gb/s)."""
        return np.array([p.goodput_gbps for p in self.points])

    @property
    def peak_gbps(self) -> float:
        """Best point on the curve (the number the paper headlines)."""
        if not self.points:
            raise MeasurementError(f"curve {self.label!r} has no points")
        return float(self.goodputs_gbps.max())

    @property
    def average_gbps(self) -> float:
        """Mean across the sweep (the paper's 'average throughput')."""
        if not self.points:
            raise MeasurementError(f"curve {self.label!r} has no points")
        return float(self.goodputs_gbps.mean())

    @property
    def mean_receiver_load(self) -> float:
        """Average receiver CPU load across the sweep (§3.3 quotes 0.9
        for 1500-byte MTUs and 0.4 for 9000)."""
        if not self.points:
            raise MeasurementError(f"curve {self.label!r} has no points")
        return float(np.mean([p.receiver_load for p in self.points]))

    def dip(self, lo: int, hi: int) -> float:
        """Depth of the worst dip in payload range [lo, hi] relative to
        the best point outside it (Fig. 3's marked dip diagnostics)."""
        inside = [p.goodput_gbps for p in self.points if lo <= p.payload <= hi]
        outside = [p.goodput_gbps for p in self.points
                   if not lo <= p.payload <= hi]
        if not inside or not outside:
            raise MeasurementError("dip range does not split the sweep")
        return 1.0 - min(inside) / max(outside)


@dataclass
class StepResult:
    """Measurements for one optimization step across MTUs."""

    step: OptimizationStep
    curves: Dict[int, SweepCurve] = field(default_factory=dict)

    def peak(self, mtu: int) -> float:
        """Measured peak for an MTU."""
        return self.curves[mtu].peak_gbps

    def paper_peak(self, mtu: int) -> Optional[float]:
        """The paper's reported peak for the same step/MTU, if any."""
        return self.step.paper_peaks_gbps.get(mtu)


class CaseStudy:
    """Run the cumulative LAN/SAN optimization study.

    Parameters
    ----------
    spec:
        Host platform for both ends (default PE2650, like the paper).
    write_count:
        NTTCP writes per point (scaled default; see tools.nttcp).
    points:
        Payload-grid resolution per sweep.
    """

    def __init__(self, spec: HostSpec = PE2650,
                 write_count: int = DEFAULT_WRITE_COUNT,
                 points: int = 16,
                 calibration: Calibration = DEFAULT_CALIBRATION):
        self.spec = spec
        self.write_count = write_count
        self.points = points
        self.calibration = calibration

    # -- building blocks ----------------------------------------------------------
    def sweep(self, config: TuningConfig,
              payloads: Optional[Sequence[int]] = None,
              label: str = "") -> SweepCurve:
        """One full NTTCP payload sweep under ``config``.

        Points are independent simulations, so they fan out over the
        parallel runner and memoize through the active result cache.
        """
        mss = mss_for_mtu(config.mtu, config.tcp_timestamps)
        if payloads is None:
            payloads = default_payloads(mss, points=self.points)
        curve = SweepCurve(label=label or config.describe(), config=config)
        tasks = [(self.spec, self.calibration, config, payload,
                  self.write_count) for payload in payloads]
        curve.points.extend(sweep(_sweep_point, tasks,
                                  cache_ns="nttcp-sweep"))
        return curve

    # -- the ladder -------------------------------------------------------------
    def run_ladder(self, mtus: Sequence[int] = (1500, 9000),
                   steps: Sequence[OptimizationStep] = LAN_OPTIMIZATION_LADDER,
                   ) -> List[StepResult]:
        """Apply each step cumulatively and sweep each MTU (Figs. 3-4)."""
        results: List[StepResult] = []
        for step in steps:
            step_result = StepResult(step=step)
            for mtu in mtus:
                config = TuningConfig.stock(mtu)
                for applied in steps:
                    config = applied.transform(config)
                    if applied is step:
                        break
                step_result.curves[mtu] = self.sweep(
                    config, label=f"{step.name} @ {mtu}")
            results.append(step_result)
        return results

    def run_mtu_tuning(self, mtus: Sequence[int] = (8160, 16000),
                       ) -> Dict[int, SweepCurve]:
        """Fig. 5: the fully tuned configuration at non-standard MTUs."""
        curves: Dict[int, SweepCurve] = {}
        for mtu in mtus:
            config = TuningConfig.fully_tuned(mtu)
            curves[mtu] = self.sweep(config, label=f"fully tuned @ {mtu}")
        return curves
