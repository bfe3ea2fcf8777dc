"""Linux-2.4-style TCP/IP stack over the simulated data path.

The package splits into pure protocol arithmetic (:mod:`repro.tcp.mss`,
:mod:`repro.tcp.window`, :mod:`repro.tcp.congestion`,
:mod:`repro.tcp.analytic`) and the discrete-event endpoints
(:mod:`repro.tcp.sender`, :mod:`repro.tcp.receiver`,
:mod:`repro.tcp.connection`), plus the stack-bypass packet generator the
paper uses for bottleneck analysis (:mod:`repro.tcp.pktgen`) and a
vectorised fluid model for long WAN runs (:mod:`repro.tcp.fluid`).
"""
