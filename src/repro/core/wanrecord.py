"""§4: the Internet2 Land Speed Record run, Sunnyvale -> Geneva.

The experiment: a single TCP/IP stream across an OC-192 + OC-48 path
(RTT 180 ms), with the socket buffer sized to the bandwidth-delay
product so the flow-control window "implicitly caps the congestion
window ... so that the network approaches congestion but avoids it
altogether".  Result: 2.38 Gb/s — ~99% of the OC-48 payload capacity —
moving a terabyte in under an hour.

Two engines reproduce it:

* the fluid model (default) — runs the full 180 ms-RTT hour-scale flow
  in milliseconds of wall time; and
* the packet-level DES — used as a cross-check at a scaled-down
  distance (the mechanics are identical; simulating 6000-segment
  windows for simulated hours in Python buys no additional fidelity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.hw.calibration import Calibration, DEFAULT_CALIBRATION
from repro.net.topology import build_wan_path
from repro.net.wanpath import OC48_BPS, POS_OVERHEAD, SONET_PAYLOAD_FRACTION
from repro.core.landspeed import LSR_2002, LSR_2003, land_speed_record_metric
from repro.sim.engine import Environment
from repro.sim.pool import sweep
from repro.tcp.analytic import bandwidth_delay_product
from repro.tcp.connection import TcpConnection, steady_goodput_bps
from repro.tcp.fluid import FluidParams, simulate_fluid
from repro.tcp.mss import mss_for_mtu
from repro.tcp.window import window_from_space

__all__ = ["WanRecordRun", "WanOutcome"]

#: The paper's path length (Sunnyvale - Geneva).
PATH_KM = 10037.0

#: Measured RTT of the path.
RTT_S = 0.180


def _buffer_sweep_point(task) -> "WanOutcome":
    """One buffer-sweep configuration (module-level for the parallel
    runner; :class:`WanRecordRun` holds only plain picklable state)."""
    run, buf, duration_s, label = task
    return run.run_fluid(buffer_bytes=buf, duration_s=duration_s,
                         label=label)


@dataclass(frozen=True)
class WanOutcome:
    """Results of one WAN configuration."""

    label: str
    buffer_bytes: int
    throughput_bps: float
    losses: int
    payload_efficiency: float
    terabyte_time_s: float
    lsr_metric: float

    @property
    def throughput_gbps(self) -> float:
        """Goodput in Gb/s."""
        return self.throughput_bps / 1e9

    @property
    def beats_previous_record(self) -> float:
        """Multiple of the pre-2003 record (the paper claims 2.5x)."""
        return self.lsr_metric / LSR_2002.metric


class WanRecordRun:
    """Drive the §4 experiment."""

    def __init__(self, mtu: int = 9000, rtt_s: float = RTT_S,
                 bottleneck_queue_frames: int = 1024,
                 calibration: Calibration = DEFAULT_CALIBRATION):
        self.mtu = mtu
        self.rtt_s = rtt_s
        self.queue_frames = bottleneck_queue_frames
        self.calibration = calibration
        self.mss = mss_for_mtu(mtu, timestamps=True)

    # -- path arithmetic -----------------------------------------------------------
    @property
    def bottleneck_goodput_bps(self) -> float:
        """TCP-payload capacity of the OC-48: SONET payload rate scaled
        by the segment's payload fraction."""
        pos_payload = OC48_BPS * SONET_PAYLOAD_FRACTION
        return pos_payload * self.mss / (self.mtu + POS_OVERHEAD)

    @property
    def bdp_bytes(self) -> float:
        """Bandwidth-delay product of the bottleneck."""
        return bandwidth_delay_product(self.bottleneck_goodput_bps, self.rtt_s)

    def bdp_buffer_bytes(self, truesize_aware: bool = False) -> int:
        """The socket-buffer size whose usable window equals the BDP
        (inverting the adv_win_scale reservation) — the paper's tuning.

        ``truesize_aware`` additionally inverts the kernel's
        power-of-two truesize accounting (a 9000-MTU segment charges
        16 KB of buffer for ~9 KB of payload), which is why real tuned
        buffers — including the paper's sysctl values — end up roughly
        twice the raw BDP.
        """
        buf = self.bdp_bytes / 0.75
        if truesize_aware:
            from repro.oskernel.allocator import block_size_for
            frame = self.mss + (self.mtu - self.mss) + 18
            buf *= block_size_for(frame) / self.mss
        return int(math.ceil(buf))

    # -- fluid engine --------------------------------------------------------------
    def fluid_params(self, buffer_bytes: int) -> FluidParams:
        """The record path as fluid-model inputs, with the window a
        ``buffer_bytes`` socket buffer allows each flow."""
        return FluidParams(
            bottleneck_bps=self.bottleneck_goodput_bps,
            base_rtt_s=self.rtt_s,
            mss=self.mss,
            max_window_bytes=window_from_space(buffer_bytes),
            queue_packets=self.queue_frames)

    def run_fluid(self, buffer_bytes: Optional[int] = None,
                  duration_s: float = 3600.0,
                  label: str = "tuned", n_flows: int = 1) -> WanOutcome:
        """One configuration through the fluid model.

        ``n_flows`` parallel streams make the LSR's multi-stream
        category; ``buffer_bytes`` is then each flow's buffer, by default
        an N-th of the tuned single-stream buffer — the practical reason
        multi-stream transfers were popular before large windows were
        safe (Table 1 recovery).
        """
        if n_flows < 1:
            raise MeasurementError("need at least one flow")
        buf = (max(4096, self.bdp_buffer_bytes() // n_flows)
               if buffer_bytes is None else buffer_bytes)
        if buf <= 0:
            raise MeasurementError("buffer must be positive")
        result = simulate_fluid(self.fluid_params(buf), duration_s=duration_s,
                                warmup_s=min(30.0, duration_s / 4.0),
                                n_flows=n_flows)
        return self._outcome(label, buf, result.mean_throughput_bps,
                             result.losses)

    def buffer_sweep(self, factors: Sequence[float] = (0.001, 0.25, 0.5,
                                                       1.0, 1.5, 3.0),
                     duration_s: float = 600.0) -> List[WanOutcome]:
        """Throughput vs socket-buffer size, in multiples of the
        BDP-sized buffer — showing the paper's point that both too-small
        *and* too-large buffers lose (Table 1 context: 'setting the
        socket buffer too large can severely impact performance')."""
        tasks = [(self, max(4096, int(self.bdp_buffer_bytes() * factor)),
                  duration_s, f"{factor:g}x BDP buffer")
                 for factor in factors]
        return sweep(_buffer_sweep_point, tasks, cache_ns="wan-buffer-sweep")

    # -- DES cross-check -------------------------------------------------------------
    def run_des_scaled(self, scale: float = 0.1,
                       duration_s: float = 4.0) -> WanOutcome:
        """Packet-level cross-check at ``scale`` of the real distance.

        The BDP shrinks with the distance, so the tuned buffer is scaled
        identically; steady-state goodput must still reach ~99% of the
        bottleneck payload capacity.
        """
        if not 0.0 < scale <= 1.0:
            raise MeasurementError("scale must be in (0, 1]")
        buf = max(65536, int(self.bdp_buffer_bytes(truesize_aware=True)
                             * scale))
        config = TuningConfig.wan_tuned(buf=buf)
        env = Environment()
        testbed = build_wan_path(
            env, config, bottleneck_queue_frames=self.queue_frames,
            calibration=self.calibration)
        # scale the circuit lengths
        for path in (testbed.forward, testbed.reverse):
            path.oc192.propagation_s *= scale
            path.oc48.propagation_s *= scale
        conn = TcpConnection(env, testbed.sunnyvale, testbed.geneva)
        throughput = steady_goodput_bps(env, [conn], 262144,
                                        warmup_s=duration_s / 2.0,
                                        window_s=duration_s / 2.0)[0]
        if throughput <= 0:
            raise MeasurementError("WAN DES run saw no deliveries")
        losses = testbed.forward.drops + testbed.reverse.drops
        return self._outcome(f"DES x{scale:g} scale", buf, throughput,
                             losses)

    # -- shared reporting ------------------------------------------------------------
    def _outcome(self, label: str, buf: int, throughput_bps: float,
                 losses: int) -> WanOutcome:
        efficiency = throughput_bps / (OC48_BPS * SONET_PAYLOAD_FRACTION)
        terabyte = 1e12 * 8.0 / throughput_bps
        return WanOutcome(
            label=label, buffer_bytes=buf, throughput_bps=throughput_bps,
            losses=losses, payload_efficiency=efficiency,
            terabyte_time_s=terabyte,
            lsr_metric=land_speed_record_metric(throughput_bps, PATH_KM))
