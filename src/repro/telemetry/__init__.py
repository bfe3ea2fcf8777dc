"""Unified telemetry: metrics registry, trace plumbing, exporters,
per-connection timelines, live streaming and engine self-profiling.

Quick tour::

    from repro.telemetry import telemetry_session, write_chrome_trace

    with telemetry_session(trace=True, profile=True) as session:
        run_experiment("fig3")
    write_chrome_trace(session.events, "out.json")
    print(format_metrics_table(session.registry))
    print(session.profile.render_table())

Live streaming (see ``docs/OBSERVABILITY.md``, "Live streaming &
replay")::

    from repro.telemetry import TelemetryBus, RunRecorder

    bus = TelemetryBus()
    rec = RunRecorder(bus, "out.reprorun")
    with telemetry_session(trace=True, bus=bus):
        run_experiment("fig3")
    bundle = rec.close()

See ``docs/OBSERVABILITY.md`` for the instrumentation-point catalog
and a Perfetto walkthrough.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "repro.telemetry.points": ("CATALOG", "InstrumentationPoint", "layer_of",
                               "render_catalog_markdown"),
    "repro.telemetry.registry": ("Counter", "Gauge", "Histogram",
                                 "MetricsRegistry", "format_metrics_table",
                                 "merge_snapshots", "diff_snapshots"),
    "repro.telemetry.profiling": ("EngineProfiler",),
    "repro.telemetry.session": ("TelemetrySession", "telemetry_session",
                                "nested_session", "active_session",
                                "active_metrics", "active_bus",
                                "register_trace", "attach_environment"),
    "repro.telemetry.stream": ("TelemetryBus", "Subscription", "StreamTap",
                               "RunRecorder", "RunBundle", "load_bundle",
                               "BUNDLE_FORMAT"),
    "repro.telemetry.exporters": ("write_jsonl", "read_jsonl",
                                  "chrome_trace_dict", "write_chrome_trace"),
    "repro.telemetry.timeline": ("build_timelines", "write_timeline",
                                 "TimelineFolder"),
})
