"""repro — simulation-based reproduction of *Optimizing 10-Gigabit
Ethernet for Networks of Workstations, Clusters, and Grids* (SC 2003).

Quick start::

    from repro import Environment, TuningConfig, BackToBack, TcpConnection
    from repro.tools.nttcp import nttcp_run

    env = Environment()
    bb = BackToBack.create(env, TuningConfig.fully_tuned(8160))
    conn = TcpConnection(env, bb.a, bb.b)
    result = nttcp_run(env, conn, payload=8108, count=1024)
    print(f"{result.goodput_gbps:.2f} Gb/s")

or regenerate a paper artifact directly::

    from repro import run_experiment
    print(run_experiment("tab1").text)
"""

from repro.cache import ResultCache, cache_context, cache_stats, clear_cache
from repro.config import TuningConfig
from repro.errors import ReproError
from repro.sim.engine import Environment
from repro.sim.pool import job_context, sweep
from repro.hw.host import Host
from repro.hw.presets import (
    GBE_HOST,
    HostSpec,
    INTEL_E7505,
    ITANIUM2,
    PE2650,
    PE4600,
    WAN_HOST,
)
from repro.net.topology import BackToBack, MultiFlow, ThroughSwitch, build_wan_path
from repro.tcp.connection import TcpConnection
from repro.sockets import SimSocket, connect
from repro.core.casestudy import CaseStudy
from repro.core.latencyreport import LatencyStudy
from repro.core.bottleneck import BottleneckStudy
from repro.core.wanrecord import WanRecordRun
from repro.analysis.experiments import experiment_ids, run_experiment

__version__ = "1.0.0"

__all__ = [
    "TuningConfig",
    "ReproError",
    "Environment",
    "Host",
    "HostSpec",
    "PE2650",
    "PE4600",
    "INTEL_E7505",
    "ITANIUM2",
    "WAN_HOST",
    "GBE_HOST",
    "BackToBack",
    "ThroughSwitch",
    "MultiFlow",
    "build_wan_path",
    "TcpConnection",
    "SimSocket",
    "connect",
    "CaseStudy",
    "LatencyStudy",
    "BottleneckStudy",
    "WanRecordRun",
    "run_experiment",
    "experiment_ids",
    "sweep",
    "job_context",
    "ResultCache",
    "cache_context",
    "cache_stats",
    "clear_cache",
    "__version__",
]
