"""Recovery analyzer: how badly did a fault hurt, and for how long?

Consumes post-hoc series — a fluid model's ``(time_s, throughput_bps)``
arrays, a DES monitor, or telemetry events — rather than sampling
inside the simulation, so the analysis can never perturb the run (and
cannot introduce train-on/off divergence through same-instant sampling
events).

Per fault the analyzer reports the quantities the paper's §5
back-of-envelope reasons about: the goodput **trough**, the
**time-to-recover** back to a fraction of baseline (for Reno at
2.38 Gb/s over 180 ms RTT this is the infamous ~1.5 hours), the
integral **goodput lost**, the **recovery slope** (Reno's one MSS per
RTT, in bps/s), the **retransmission storm** size, the **cwnd trough**,
and a 0–100 resilience **score** combining availability and recovery
speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.chaos.plan import FaultSpec
from repro.errors import ChaosError

__all__ = ["FaultWindow", "FaultRecovery", "analyze_goodput",
           "render_scorecard"]


@dataclass(frozen=True)
class FaultWindow:
    """The minimal description of a fault the analyzer needs."""

    start_s: float
    end_s: float
    kind: str = "fault"
    target: str = "*"
    label: str = ""
    index: int = 0


@dataclass(frozen=True)
class FaultRecovery:
    """Scorecard for one fault.

    ``time_to_recover_s`` is measured from the fault's onset to the
    first sample at or above ``recovered_fraction`` of baseline after
    the trough; ``recovered`` is False (and the lost integral runs to
    the end of the series) when that never happens.
    """

    index: int
    kind: str
    target: str
    label: str
    start_s: float
    end_s: float
    baseline_bps: float
    trough_bps: float
    time_to_recover_s: float
    recovered: bool
    goodput_lost_bits: float
    recovery_slope_bps_per_s: float
    score: int


def _normalize_fault(entry: Any, position: int) -> FaultWindow:
    if isinstance(entry, FaultWindow):
        return entry
    if isinstance(entry, FaultSpec):
        return FaultWindow(start_s=entry.start_s, end_s=entry.end_s,
                           kind=entry.kind, target=entry.target,
                           label=entry.label, index=position)
    if isinstance(entry, dict):  # an injector summary() row
        start = float(entry["start_s"])
        end = float(entry.get("end_s",
                              start + float(entry.get("duration_s", 0.0))))
        return FaultWindow(start_s=start, end_s=end,
                           kind=entry.get("kind", "fault"),
                           target=entry.get("target", "*"),
                           label=entry.get("label", ""),
                           index=int(entry.get("index", position)))
    if isinstance(entry, (tuple, list)) and len(entry) == 2:
        return FaultWindow(start_s=float(entry[0]), end_s=float(entry[1]),
                           index=position)
    raise ChaosError(f"cannot interpret fault description {entry!r}")


def analyze_goodput(time_s: Sequence[float], goodput_bps: Sequence[float],
                    faults: Iterable[Any],
                    recovered_fraction: float = 0.95) -> List[FaultRecovery]:
    """Score each fault against a goodput time series.

    ``faults`` entries may be :class:`FaultWindow`, :class:`~repro.
    chaos.plan.FaultSpec`, injector ``summary()`` dicts, or bare
    ``(start_s, end_s)`` pairs.  The series is treated as piecewise
    constant between samples (matching the fluid model's export).
    """
    if not 0.0 < recovered_fraction <= 1.0:
        raise ChaosError(f"recovered_fraction must be in (0, 1], got "
                         f"{recovered_fraction!r}")
    times = [float(t) for t in time_s]
    rates = [float(g) for g in goodput_bps]
    if len(times) != len(rates):
        raise ChaosError("time and goodput series must have equal length")
    if len(times) < 2:
        raise ChaosError("need at least two samples to analyze recovery")
    horizon = times[-1]
    out: List[FaultRecovery] = []
    for position, entry in enumerate(faults):
        fault = _normalize_fault(entry, position)
        out.append(_analyze_one(times, rates, fault, recovered_fraction,
                                horizon))
    return out


def _analyze_one(times: List[float], rates: List[float], fault: FaultWindow,
                 recovered_fraction: float, horizon: float) -> FaultRecovery:
    start = fault.start_s
    # Baseline: time-weighted mean goodput before the fault hits (the
    # record run's steady 2.38 Gb/s); fall back to the series peak when
    # the fault opens at t=0.
    pre_area = 0.0
    pre_span = 0.0
    for i in range(len(times) - 1):
        left, right = times[i], min(times[i + 1], start)
        if right <= left:
            break
        pre_area += rates[i] * (right - left)
        pre_span += right - left
    baseline = pre_area / pre_span if pre_span > 0 else max(rates)
    threshold = recovered_fraction * baseline

    # Trough and recovery are searched from the fault's onset onward.
    first = 0
    while first < len(times) and times[first] < start:
        first += 1
    window = range(first, len(times))
    if first >= len(times):
        # Fault opens after the series ends: nothing to measure.
        return FaultRecovery(
            index=fault.index, kind=fault.kind, target=fault.target,
            label=fault.label, start_s=start, end_s=fault.end_s,
            baseline_bps=baseline, trough_bps=baseline,
            time_to_recover_s=0.0, recovered=True, goodput_lost_bits=0.0,
            recovery_slope_bps_per_s=0.0, score=100)
    trough_idx = min(window, key=lambda i: rates[i])
    trough = rates[trough_idx]
    rec_idx: Optional[int] = None
    for i in range(trough_idx, len(times)):
        if rates[i] >= threshold:
            rec_idx = i
            break
    recovered = rec_idx is not None
    end_idx = rec_idx if rec_idx is not None else len(times) - 1
    ttr = (times[end_idx] - start) if recovered else horizon - start

    # Lost goodput: integral of the baseline shortfall from onset until
    # recovery (or the end of the series).
    lost = 0.0
    for i in range(first, end_idx):
        dt = times[i + 1] - times[i]
        if dt > 0:
            lost += max(0.0, baseline - rates[i]) * dt
    if first > 0 and times[first] > start:
        # partial step between the onset and the first in-window sample
        lost += max(0.0, baseline - rates[first - 1]) * (times[first] - start)

    slope = 0.0
    if recovered and rec_idx is not None and rec_idx > trough_idx:
        span = times[rec_idx] - times[trough_idx]
        if span > 0:
            slope = (rates[rec_idx] - trough) / span

    # Score: availability (how much of the baseline-seconds survived)
    # weighted with recovery speed (how quickly it came back).
    span = max(horizon - start, 1e-12)
    avail = 1.0 - min(1.0, lost / (baseline * span)) if baseline > 0 else 0.0
    speed = (1.0 - min(1.0, ttr / span)) if recovered else 0.0
    score = int(round(100.0 * (0.6 * avail + 0.4 * speed)))

    return FaultRecovery(
        index=fault.index, kind=fault.kind, target=fault.target,
        label=fault.label, start_s=start, end_s=fault.end_s,
        baseline_bps=baseline, trough_bps=trough,
        time_to_recover_s=ttr, recovered=recovered,
        goodput_lost_bits=lost, recovery_slope_bps_per_s=slope,
        score=max(0, min(100, score)))


# -- telemetry enrichment --------------------------------------------------------
# -- rendering -------------------------------------------------------------------
def _fmt_rate(bps: float) -> str:
    if bps >= 1e9:
        return f"{bps / 1e9:.2f} Gb/s"
    if bps >= 1e6:
        return f"{bps / 1e6:.1f} Mb/s"
    return f"{bps / 1e3:.0f} kb/s"


def _fmt_time(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.2f} h"
    if seconds >= 60:
        return f"{seconds / 60:.1f} min"
    return f"{seconds:.3g} s"


def render_scorecard(recoveries: Sequence[FaultRecovery],
                     title: str = "Resilience scorecard") -> str:
    """Fixed-width per-fault table for reports and the demo script."""
    header = (f"{'fault':<22} {'baseline':>10} {'trough':>10} "
              f"{'recover':>9} {'lost':>10} {'score':>5}")
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for rec in recoveries:
        name = f"#{rec.index} {rec.kind}"
        if rec.label:
            name += f" ({rec.label})"
        ttr = _fmt_time(rec.time_to_recover_s) if rec.recovered else "never"
        lines.append(
            f"{name[:22]:<22} {_fmt_rate(rec.baseline_bps):>10} "
            f"{_fmt_rate(rec.trough_bps):>10} {ttr:>9} "
            f"{rec.goodput_lost_bits / 8e9:>8.2f}GB "
            f"{rec.score:>5}")
    return "\n".join(lines)
