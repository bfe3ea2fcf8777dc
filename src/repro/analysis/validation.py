"""Cross-validation: the analytic model against the packet-level DES.

The packet-level simulator is ground truth for this reproduction;
:func:`~repro.tcp.analytic.predict_throughput_bps` is the closed form
beside it, the §3.5 stack profile's capacity capped by the window.
This module measures how well the closed form tracks the DES,
configuration by configuration, so its drift is caught by tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hw.presets import HostSpec, PE2650
from repro.net.topology import BackToBack
from repro.sim.engine import Environment
from repro.tcp.analytic import predict_throughput_bps
from repro.tcp.connection import TcpConnection
from repro.tcp.mss import mss_for_mtu
from repro.tools.nttcp import nttcp_run

__all__ = ["ValidationPoint", "ValidationReport", "cross_validate"]


@dataclass(frozen=True)
class ValidationPoint:
    """One (config, payload) comparison."""

    label: str
    payload: int
    des_bps: float
    analytic_bps: float

    @property
    def ratio(self) -> float:
        """analytic / DES."""
        return self.analytic_bps / self.des_bps

    @property
    def abs_error(self) -> float:
        """|analytic - DES| / DES."""
        return abs(self.analytic_bps - self.des_bps) / self.des_bps


@dataclass
class ValidationReport:
    """All comparison points plus aggregate agreement measures."""

    points: List[ValidationPoint]

    def max_error(self) -> float:
        """Worst relative disagreement."""
        if not self.points:
            raise MeasurementError("no validation points")
        return max(p.abs_error for p in self.points)

    def mean_error(self) -> float:
        """Average relative disagreement."""
        if not self.points:
            raise MeasurementError("no validation points")
        return float(np.mean([p.abs_error for p in self.points]))

    def rank_agreement(self) -> bool:
        """Do the two engines order the configurations identically?
        (The §3.3 ladder's story is the order, not the absolute rates.)"""
        des_order = [p.label for p in
                     sorted(self.points, key=lambda p: p.des_bps)]
        ana_order = [p.label for p in
                     sorted(self.points, key=lambda p: p.analytic_bps)]
        return des_order == ana_order

    def rows(self) -> List[dict]:
        """Table rows for reporting."""
        return [{
            "config": p.label,
            "payload": p.payload,
            "DES Gb/s": round(p.des_bps / 1e9, 2),
            "analytic Gb/s": round(p.analytic_bps / 1e9, 2),
            "ratio": round(p.ratio, 2),
        } for p in self.points]


def cross_validate(configs: Optional[Sequence[TuningConfig]] = None,
                   spec: HostSpec = PE2650,
                   count: int = 384,
                   calibration: Calibration = DEFAULT_CALIBRATION
                   ) -> ValidationReport:
    """Run both engines over a set of configurations at MSS payloads."""
    if configs is None:
        configs = (
            TuningConfig.stock(1500),
            TuningConfig.stock(9000),
            TuningConfig.with_pcix_burst(9000),
            TuningConfig.oversized_windows(9000),
            TuningConfig.fully_tuned(8160),
        )
    points: List[ValidationPoint] = []
    for config in configs:
        payload = mss_for_mtu(config.mtu, config.tcp_timestamps)
        env = Environment()
        testbed = BackToBack.create(env, config, spec=spec,
                                    calibration=calibration)
        conn = TcpConnection(env, testbed.a, testbed.b)
        des = nttcp_run(env, conn, payload, count).goodput_bps
        analytic = predict_throughput_bps(spec, config, payload,
                                          calibration=calibration)
        points.append(ValidationPoint(label=config.describe(),
                                      payload=payload,
                                      des_bps=des, analytic_bps=analytic))
    return ValidationReport(points=points)
