"""The paper's contribution: the 10GbE tuning methodology.

* :mod:`repro.core.knobs` — the ``REPRO_*`` environment-knob registry.
* :mod:`repro.core.optimizations` — the named cumulative steps of §3.3.
* :mod:`repro.core.casestudy` — the driver that applies steps and
  measures each (Figs. 3-5).
* :mod:`repro.core.latencyreport` — the latency study (Figs. 6-7).
* :mod:`repro.core.bottleneck` — the §3.5.2 bottleneck decomposition.
* :mod:`repro.core.comparison` — §3.5.4 versus GbE/Myrinet/QsNet.
* :mod:`repro.core.wanrecord` — the §4 Internet2 Land Speed Record run.
* :mod:`repro.core.landspeed` — the LSR metric itself.
"""
