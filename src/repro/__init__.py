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

from repro.lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.config": ("TuningConfig",),
    "repro.errors": ("ReproError",),
    "repro.sim.engine": ("Environment",),
    "repro.hw.host": ("Host",),
    "repro.hw.presets": ("HostSpec", "PE2650", "PE4600", "INTEL_E7505",
                         "ITANIUM2", "WAN_HOST", "GBE_HOST"),
    "repro.net.topology": ("BackToBack", "ThroughSwitch", "MultiFlow",
                           "build_wan_path"),
    "repro.tcp.connection": ("TcpConnection",),
    "repro.sockets": ("SimSocket", "connect"),
    "repro.core.casestudy": ("CaseStudy",),
    "repro.core.latencyreport": ("LatencyStudy",),
    "repro.core.bottleneck": ("BottleneckStudy",),
    "repro.core.wanrecord": ("WanRecordRun",),
    "repro.analysis.experiments": ("run_experiment", "experiment_ids"),
    "repro.sim.pool": ("sweep", "job_context"),
    "repro.cache": ("ResultCache", "cache_context", "cache_stats",
                    "clear_cache"),
})
__all__.append("__version__")
