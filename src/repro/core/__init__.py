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

from repro.core.optimizations import OptimizationStep, LAN_OPTIMIZATION_LADDER
from repro.core.casestudy import CaseStudy, StepResult, SweepCurve
from repro.core.latencyreport import LatencyStudy, LatencyCurve
from repro.core.bottleneck import BottleneckStudy, BottleneckReport
from repro.core.comparison import InterconnectComparison, INTERCONNECTS
from repro.core.wanrecord import WanRecordRun, WanOutcome
from repro.core.landspeed import land_speed_record_metric, LSR_2003

__all__ = [
    "OptimizationStep",
    "LAN_OPTIMIZATION_LADDER",
    "CaseStudy",
    "StepResult",
    "SweepCurve",
    "LatencyStudy",
    "LatencyCurve",
    "BottleneckStudy",
    "BottleneckReport",
    "InterconnectComparison",
    "INTERCONNECTS",
    "WanRecordRun",
    "WanOutcome",
    "land_speed_record_metric",
    "LSR_2003",
]
