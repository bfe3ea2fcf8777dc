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

from repro.telemetry.exporters import (chrome_trace_dict, read_jsonl,
                                       write_chrome_trace, write_jsonl)
from repro.telemetry.points import (CATALOG, InstrumentationPoint, layer_of,
                                    render_catalog_markdown)
from repro.telemetry.profiling import EngineProfiler
from repro.telemetry.registry import (Counter, Gauge, Histogram,
                                      MetricsRegistry, diff_snapshots,
                                      format_metrics_table, merge_snapshots)
from repro.telemetry.session import (TelemetrySession, active_bus,
                                     active_metrics, active_session,
                                     attach_environment, nested_session,
                                     register_trace, telemetry_session)
from repro.telemetry.stream import (BUNDLE_FORMAT, RunBundle, RunRecorder,
                                    StreamTap, Subscription, TelemetryBus,
                                    load_bundle)
from repro.telemetry.timeline import (TimelineFolder, build_timelines,
                                      write_timeline)

__all__ = [
    "CATALOG", "InstrumentationPoint", "layer_of", "render_catalog_markdown",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "format_metrics_table", "merge_snapshots", "diff_snapshots",
    "EngineProfiler",
    "TelemetrySession", "telemetry_session", "nested_session",
    "active_session", "active_metrics", "active_bus", "register_trace",
    "attach_environment",
    "TelemetryBus", "Subscription", "StreamTap", "RunRecorder", "RunBundle",
    "load_bundle", "BUNDLE_FORMAT",
    "write_jsonl", "read_jsonl", "chrome_trace_dict", "write_chrome_trace",
    "build_timelines", "write_timeline", "TimelineFolder",
]
