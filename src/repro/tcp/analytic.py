"""Closed-form models: Table 1, Figure 8 and the §3.5.1 worked example.

These are the paper's own back-of-envelope models, implemented exactly:

* ``bandwidth_delay_product`` — the ideal window.
* ``recovery_time_s`` — Table 1: after a single loss halves a
  BDP-sized congestion window, additive increase recovers one MSS-sized
  segment per RTT, so recovery takes ``(BDP / 2MSS) * RTT``.
* ``mss_aligned_window`` / ``window_efficiency`` — Figure 8: the best
  MSS-aligned window inside an ideal window, and the fraction retained.
* ``sender_receiver_mismatch`` — the worked example with sender MSS
  8960, receiver MSS 8948 and 33000 bytes of socket memory.
* ``predict_throughput_bps`` — the bottleneck model the ``validation``
  experiment checks the DES against: the stack profile's capacity
  capped by the window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TuningConfig
from repro.errors import ProtocolError
from repro.hw.calibration import Calibration, CostModel, DEFAULT_CALIBRATION
from repro.hw.presets import HostSpec
from repro.tcp.mss import advertised_mss, mss_for_mtu
from repro.tcp.window import sws_aligned, window_from_space

__all__ = [
    "bandwidth_delay_product",
    "recovery_time_s",
    "mss_aligned_window",
    "window_efficiency",
    "sender_receiver_mismatch",
    "MismatchResult",
    "predict_throughput_bps",
]


def bandwidth_delay_product(rate_bps: float, rtt_s: float) -> float:
    """Ideal window in bytes for a path of ``rate_bps`` and ``rtt_s``."""
    if rate_bps <= 0 or rtt_s <= 0:
        raise ProtocolError("rate and RTT must be positive")
    return rate_bps * rtt_s / 8.0


def recovery_time_s(rate_bps: float, rtt_s: float, mss: int) -> float:
    """Table 1: time to regrow the congestion window after one loss.

    Assumes the window equalled the BDP when the packet was lost; AIMD
    halves it and then adds one segment per RTT.
    """
    if mss <= 0:
        raise ProtocolError("MSS must be positive")
    window_segments = bandwidth_delay_product(rate_bps, rtt_s) / mss
    return (window_segments / 2.0) * rtt_s


def mss_aligned_window(ideal_window: int, mss: int) -> int:
    """Figure 8: the best window achievable when it must be MSS-aligned."""
    return sws_aligned(ideal_window, mss)


def window_efficiency(ideal_window: int, mss: int) -> float:
    """Fraction of the ideal window usable under MSS alignment."""
    if ideal_window <= 0:
        raise ProtocolError("ideal window must be positive")
    return mss_aligned_window(ideal_window, mss) / ideal_window


@dataclass(frozen=True)
class MismatchResult:
    """Outcome of the §3.5.1 sender/receiver MSS mismatch example."""

    available_memory: int
    receiver_mss: int
    sender_mss: int
    advertised_window: int
    usable_window: int

    @property
    def advertised_loss(self) -> float:
        """Fraction of socket memory not advertised."""
        return 1.0 - self.advertised_window / self.available_memory

    @property
    def usable_loss(self) -> float:
        """Fraction of socket memory the sender can actually use."""
        return 1.0 - self.usable_window / self.available_memory


def sender_receiver_mismatch(available_memory: int = 33000,
                             receiver_mss: int = 8948,
                             sender_mss: int = 8960) -> MismatchResult:
    """The paper's worked example: 33000 bytes of receive memory
    advertises ``floor(33000/8948)*8948 = 26844`` (19% lost), of which
    the sender's 8960-aligned congestion window can use only
    ``floor(26844/8960)*8960 = 17920`` — nearly 50% below the memory."""
    advertised = sws_aligned(available_memory, receiver_mss)
    usable = sws_aligned(advertised, sender_mss)
    return MismatchResult(available_memory=available_memory,
                          receiver_mss=receiver_mss,
                          sender_mss=sender_mss,
                          advertised_window=advertised,
                          usable_window=usable)


# ---------------------------------------------------------------------------
# Throughput model (the ``validation`` experiment's analytic column)
# ---------------------------------------------------------------------------

#: Unloaded back-to-back round trip the window limit's queueing adds to.
LAN_BASE_RTT_S = 45e-6


def predict_throughput_bps(spec: HostSpec, config: TuningConfig,
                           payload: int,
                           calibration: Calibration = DEFAULT_CALIBRATION) -> float:
    """Steady-state goodput of one NTTCP flow of ``payload``-byte writes.

    The capacity is the §3.5 stack profile's binding location for one
    write (receiver CPU, either host's I/O bus — PCI-X, or the memory
    hub under CSA — sender CPU, or the 10 Gb/s wire).  The window limitation
    ``W_bytes / RTT_eff`` caps it, with the usable window following
    the truesize/SWS arithmetic of §3.5.1.  Only the ``validation``
    experiment calls it, to check the DES against a closed form.
    """
    from repro.analysis.stackprofile import StackProfiler, segment_sizes
    from repro.oskernel.allocator import block_size_for

    if payload <= 0:
        raise ProtocolError("payload must be positive")
    profile = StackProfiler(spec, calibration).profile(config, payload)
    mss = mss_for_mtu(config.mtu, config.tcp_timestamps)
    sizes = segment_sizes(payload, mss)

    # window limitation: usable bytes in flight, aligned to the
    # receiver's estimate of the peer MSS (the §3.5.1 quirk)
    advertised = sws_aligned(window_from_space(config.tcp_rmem),
                             advertised_mss(config.mtu))
    if advertised <= 0:
        return 0.0
    # bytes in flight quantized to whole write-sized segments
    seg = sizes[0]
    in_flight = max(1, advertised // seg) * seg
    # sndbuf truesize limit
    truesize = block_size_for(
        CostModel(spec, config, calibration).frame_bytes(seg))
    wmem_segments = max(1, config.tcp_wmem // truesize)
    in_flight = min(in_flight, wmem_segments * seg)
    service = max(profile.seconds("receiver CPU"),
                  profile.seconds("receiver bus")) / len(sizes)
    rtt_eff = LAN_BASE_RTT_S + (in_flight / seg) * service * 0.5
    window_limit = in_flight * 8.0 / rtt_eff

    return min(profile.predicted_goodput_bps(), window_limit)
