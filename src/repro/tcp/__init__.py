"""Linux-2.4-style TCP/IP stack over the simulated data path.

The package splits into pure protocol arithmetic (:mod:`repro.tcp.mss`,
:mod:`repro.tcp.window`, :mod:`repro.tcp.congestion`,
:mod:`repro.tcp.analytic`) and the discrete-event endpoints
(:mod:`repro.tcp.sender`, :mod:`repro.tcp.receiver`,
:mod:`repro.tcp.connection`), plus the stack-bypass packet generator the
paper uses for bottleneck analysis (:mod:`repro.tcp.pktgen`) and a
vectorised fluid model for long WAN runs (:mod:`repro.tcp.fluid`).
"""

from repro.tcp.mss import mss_for_mtu, advertised_mss, MtuProfile
from repro.tcp.window import (
    sws_aligned,
    window_from_space,
    window_scale_for,
    ReceiveWindow,
)
from repro.tcp.congestion import RenoCongestion
from repro.tcp.connection import TcpConnection
from repro.tcp.analytic import (
    bandwidth_delay_product,
    recovery_time_s,
    mss_aligned_window,
    window_efficiency,
    sender_receiver_mismatch,
    predict_throughput_bps,
)

__all__ = [
    "mss_for_mtu",
    "advertised_mss",
    "MtuProfile",
    "sws_aligned",
    "window_from_space",
    "window_scale_for",
    "ReceiveWindow",
    "RenoCongestion",
    "TcpConnection",
    "bandwidth_delay_product",
    "recovery_time_s",
    "mss_aligned_window",
    "window_efficiency",
    "sender_receiver_mismatch",
    "predict_throughput_bps",
]
