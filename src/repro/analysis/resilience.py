"""Resilience report: the §5 "one loss ruins the record" experiment.

The paper's land-speed-record run moved 2×10^7 packets without a single
loss — and had to, because one drop would have halved Reno's ~36k-
segment window and linear 1-MSS-per-RTT regrowth at 180 ms RTT takes on
the order of **1.5 hours** (Table 1's back-of-envelope; exactly 55
minutes with one ACK per segment, ~1.8 h under delayed ACKs).

:func:`wan_loss_report` reproduces that thought experiment end to end:
run the record configuration through the fluid model, force a single
loss, and hand the goodput series to the chaos analyzer's scorecard.
The measured time-to-recover lands on the analytic value, which in turn
brackets the paper's quoted ~1.5 hours.

This module is the ``analysis/``-layer face of :mod:`repro.chaos`; the
generic machinery (plans, injection, scoring) lives there, the worked
WAN narrative lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.chaos.analyzer import (FaultRecovery, FaultWindow,
                                  analyze_goodput, render_scorecard)
from repro.core.wanrecord import RTT_S, WanRecordRun
from repro.tcp.analytic import recovery_time_s
from repro.tcp.fluid import FluidParams, simulate_fluid
from repro.tcp.window import window_from_space

__all__ = ["ResilienceReport", "wan_loss_report"]


@dataclass
class ResilienceReport:
    """Printable report plus the raw numbers behind it."""

    text: str
    data: Dict[str, Any]
    recoveries: List[FaultRecovery]


def wan_loss_report(mtu: int = 1500, loss_at_s: float = 300.0,
                    duration_s: Optional[float] = None,
                    recovered_fraction: float = 0.99) -> ResilienceReport:
    """One forced loss on the record run's path, scored end to end.

    ``mtu`` defaults to standard Ethernet: the paper's back-of-envelope
    reasons about ordinary 1500-byte frames (jumbo frames shrink the
    segment count and with it the recovery time ~6x — which the report
    also quantifies analytically).
    """
    run = WanRecordRun(mtu=mtu)
    rate = run.bottleneck_goodput_bps
    analytic_s = recovery_time_s(rate, run.rtt_s, run.mss)
    # Delayed ACKs clock the window up every *other* segment, doubling
    # the regrowth time; the paper's "~1.5 hours" sits between the two.
    analytic_delack_s = 2.0 * analytic_s
    if duration_s is None:
        duration_s = loss_at_s + 1.35 * analytic_s
    params = FluidParams(
        bottleneck_bps=rate,
        base_rtt_s=run.rtt_s,
        mss=run.mss,
        max_window_bytes=window_from_space(run.bdp_buffer_bytes()),
        queue_packets=run.queue_frames)
    result = simulate_fluid(params, duration_s=duration_s,
                            warmup_s=min(30.0, loss_at_s / 2.0),
                            force_loss_at_s=loss_at_s)
    fault = FaultWindow(start_s=loss_at_s, end_s=loss_at_s + run.rtt_s,
                        kind="loss_burst", target="wan.oc48",
                        label="single drop")
    recoveries = analyze_goodput(result.time_s, result.throughput_bps,
                                 [fault],
                                 recovered_fraction=recovered_fraction)
    rec = recoveries[0]
    lines = [
        render_scorecard(recoveries,
                         title=f"WAN single-loss resilience (MTU {mtu}, "
                               f"RTT {run.rtt_s * 1e3:.0f} ms)"),
        "",
        f"baseline goodput        : {rec.baseline_bps / 1e9:.2f} Gb/s "
        f"(paper: 2.38 Gb/s record)",
        f"measured time-to-recover: {rec.time_to_recover_s / 60:.1f} min "
        f"(to {recovered_fraction:.0%} of baseline)",
        f"analytic (Table 1)      : {analytic_s / 60:.1f} min per-segment "
        f"ACKs, {analytic_delack_s / 3600:.2f} h delayed ACKs",
        f"paper back-of-envelope  : ~1.5 hours — one loss event forfeits "
        f"the record",
    ]
    data = {
        "mtu": mtu,
        "mss": run.mss,
        "rtt_s": run.rtt_s,
        "bottleneck_bps": rate,
        "loss_at_s": loss_at_s,
        "duration_s": duration_s,
        "losses": result.losses,
        "baseline_bps": rec.baseline_bps,
        "trough_bps": rec.trough_bps,
        "time_to_recover_s": rec.time_to_recover_s,
        "recovered": rec.recovered,
        "goodput_lost_bits": rec.goodput_lost_bits,
        "score": rec.score,
        "analytic_recovery_s": analytic_s,
        "analytic_recovery_delack_s": analytic_delack_s,
    }
    return ResilienceReport(text="\n".join(lines), data=data,
                            recoveries=recoveries)


#: Re-exported for convenience in reports.
PAPER_RTT_S = RTT_S
