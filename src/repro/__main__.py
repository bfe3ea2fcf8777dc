"""Command-line entry point: regenerate paper artifacts.

Usage::

    python -m repro --list
    python -m repro fig3 tab1 wan
    python -m repro all --full --jobs auto --out results/
    python -m repro fig3 --trace out.json --metrics --profile
    python -m repro --cache-stats
    python -m repro --clear-cache

Each named experiment prints the same rows/series the paper reports
(see the index in DESIGN.md) and optionally archives the text.
Independent simulation points fan out over ``--jobs`` worker processes
(default: ``REPRO_JOBS`` or serial; results are bit-identical either
way) drawn from one persistent warm pool shared by every experiment in
the invocation, and completed work is memoized under ``.repro-cache/``
so warm reruns are near-instant (``--no-cache`` forces recomputation;
see docs/CACHING.md for the store layout and sizing knobs).

Chaos (see docs/RESILIENCE.md): ``--chaos PLAN.json`` (or the
``REPRO_CHAOS`` environment variable) arms a declarative fault plan for
every experiment in the invocation; cache keys automatically include the
plan fingerprint, so chaotic results never alias clean ones.

Telemetry (see docs/OBSERVABILITY.md): ``--metrics`` appends the merged
metrics table to each report (identical at any ``--jobs``), ``--trace``
writes a Perfetto-loadable Chrome trace, ``--trace-jsonl`` a raw event
dump, ``--timeline`` per-connection tcptrace-style series, and
``--profile`` the engine's "where did the time go" table.  Any of these
flags disables the result cache for the run (cache hits produce no
telemetry).

Live streaming (docs/OBSERVABILITY.md, "Live streaming & replay"):
``--serve [HOST:PORT]`` starts the observer dashboard and streams the
run over SSE while it executes; ``--record RUN.reprorun`` persists the
same stream into a replayable bundle; ``--replay RUN.reprorun`` prints
a recorded bundle's summary, or serves it for scrubbing when combined
with ``--serve``.  Streaming implies metrics+trace collection and
bypasses the result cache (a cache hit would produce no stream).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import List

from repro.analysis.experiments import experiment_ids, run_experiment
from repro.cache import cache_stats, clear_cache
from repro.errors import ConfigError
from repro.sim.pool import resolve_jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of the SC 2003 10GbE paper "
                    "from the simulator.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (or 'all'); see --list")
    parser.add_argument("--list", action="store_true",
                        help="list available experiment ids and exit")
    parser.add_argument("--full", action="store_true",
                        help="paper-scale averaging (slower)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to archive reports into")
    parser.add_argument("--jobs", "-j", default=None, metavar="N",
                        help="worker processes for independent simulation "
                             "points ('auto' = one per core; default: "
                             "$REPRO_JOBS or serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--chaos", type=pathlib.Path, default=None,
                        metavar="PLAN.json",
                        help="arm a declarative fault plan (JSON; see "
                             "docs/RESILIENCE.md) for every experiment")
    parser.add_argument("--metrics", action="store_true",
                        help="append the merged metrics table to each "
                             "report")
    parser.add_argument("--trace", type=pathlib.Path, default=None,
                        metavar="FILE",
                        help="write a Chrome trace_event JSON (open in "
                             "Perfetto / chrome://tracing)")
    parser.add_argument("--trace-jsonl", type=pathlib.Path, default=None,
                        metavar="FILE",
                        help="write the raw trace events as JSON lines")
    parser.add_argument("--timeline", type=pathlib.Path, default=None,
                        metavar="FILE",
                        help="write tcptrace-style per-connection "
                             "time-sequence/cwnd series as JSON")
    parser.add_argument("--profile", action="store_true",
                        help="append the engine self-profile ('where did "
                             "the time go') to each report")
    parser.add_argument("--serve", nargs="?", const="127.0.0.1:0",
                        default=None, metavar="HOST:PORT",
                        help="serve the live observer dashboard (SSE) while "
                             "experiments run, or a recorded bundle with "
                             "--replay (default bind: 127.0.0.1, ephemeral "
                             "port)")
    parser.add_argument("--record", type=pathlib.Path, default=None,
                        metavar="RUN.reprorun",
                        help="record the telemetry stream into a replayable "
                             ".reprorun bundle directory")
    parser.add_argument("--replay", type=pathlib.Path, default=None,
                        metavar="RUN.reprorun",
                        help="load a recorded bundle: print its summary, or "
                             "serve it for scrubbing with --serve")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print result-cache statistics and exit")
    parser.add_argument("--clear-cache", action="store_true",
                        help="empty the result cache and exit")
    return parser


def _parse_serve(value: str):
    """``HOST:PORT``/``:PORT``/``PORT`` -> (host, port)."""
    host, _, port = value.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        return host, int(port or "0")
    except ValueError:
        raise ConfigError(f"--serve expects HOST:PORT, got {value!r}")


def _hold_serving(server) -> None:
    """Keep the observer up until Ctrl-C (interactive sessions, or
    ``REPRO_SERVE_HOLD=1``; non-tty runs fall through so scripted
    invocations terminate)."""
    from repro.core.knobs import env_raw
    hold = env_raw("REPRO_SERVE_HOLD")
    if hold is not None:
        want = hold not in ("0", "")
    else:
        want = sys.stdin.isatty()
    if not want:
        return
    print("observer serving — Ctrl-C to exit", file=sys.stderr)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass


def _replay_bundle(args, serve_addr) -> int:
    """``--replay``: print a bundle summary, or serve it for scrubbing."""
    from repro.telemetry import load_bundle
    try:
        bundle = load_bundle(args.replay)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if serve_addr is None:
        s = bundle.summary()
        kinds = ", ".join(f"{k}:{n}" for k, n in sorted(s["kinds"].items()))
        print(f"bundle {args.replay} ({s['format']})")
        print(f"  events: {s['event_count']} ({kinds})")
        if s["experiments"]:
            print(f"  experiments: {', '.join(s['experiments'])}")
        print(f"  chaos events: {s['chaos_events']}")
        if s["first_time"] is not None:
            print(f"  sim time: {s['first_time']:.6f}s .. "
                  f"{s['last_time']:.6f}s")
        top = sorted(s["trace_points"].items(), key=lambda kv: -kv[1])[:8]
        for point, count in top:
            print(f"    {point:<24} {count}")
        return 0
    from repro.serve import ObserverServer
    server = ObserverServer(bundle=bundle, host=serve_addr[0],
                            port=serve_addr[1],
                            meta={"bundle": str(args.replay)})
    server.start()
    print(f"observer (replay): {server.url}", file=sys.stderr)
    _hold_serving(server)
    server.stop()
    return 0


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name in experiment_ids():
            print(name)
        return 0
    if args.cache_stats:
        from repro.cache import SHARDS, cache_max_bytes
        stats = cache_stats()
        cap = cache_max_bytes()
        cap_note = (f", cap {cap / 1e6:.2f} MB" if cap is not None
                    else "")
        print(f"cache {stats.path}: {stats.entries} entries across "
              f"{SHARDS} shards, {stats.size_bytes / 1e6:.2f} MB{cap_note}")
        print(f"  this process: {stats.hits} hits "
              f"({stats.hot_hits} hot) / {stats.misses} misses, "
              f"{stats.stores} stores, {stats.evictions} evictions, "
              f"{stats.errors} errors")
        return 0
    if args.clear_cache:
        removed = clear_cache()
        print(f"cleared {removed} cache entr{'y' if removed == 1 else 'ies'}")
        return 0
    if args.jobs is not None:
        try:
            resolve_jobs(args.jobs)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        serve_addr = (_parse_serve(args.serve)
                      if args.serve is not None else None)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.replay is not None:
        return _replay_bundle(args, serve_addr)
    names = args.experiments
    if not names:
        build_parser().print_help()
        return 2
    if names == ["all"]:
        names = experiment_ids()
    unknown = [n for n in names if n not in experiment_ids()]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}; "
              f"known: {', '.join(experiment_ids())}", file=sys.stderr)
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    want_events = (args.trace is not None or args.trace_jsonl is not None
                   or args.timeline is not None)
    streaming = serve_addr is not None or args.record is not None
    telemetry_on = (want_events or args.metrics or args.profile
                    or streaming)
    if args.chaos is not None:
        from repro.chaos import FaultPlan, chaos_session
        try:
            plan = FaultPlan.load(args.chaos)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        chaos_cm = chaos_session(plan)
    else:
        import contextlib
        chaos_cm = contextlib.nullcontext()
    all_events = []
    bus = recorder = server = None
    if streaming:
        from repro.telemetry import RunRecorder, TelemetryBus
        bus = TelemetryBus()
        if args.record is not None:
            try:
                recorder = RunRecorder(bus, args.record)
            except Exception as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        if serve_addr is not None:
            from repro.serve import ObserverServer
            server = ObserverServer(bus=bus, host=serve_addr[0],
                                    port=serve_addr[1],
                                    meta={"experiments": " ".join(names)})
            server.start()
            print(f"observer: {server.url}", file=sys.stderr)
    try:
        with chaos_cm:
            rc = _run_experiments(args, names, telemetry_on, want_events,
                                  all_events, bus)
    finally:
        # The warm worker pool persists across the experiments above;
        # tear it down before the interpreter starts dying.
        from repro.sim.pool import shutdown_pool
        shutdown_pool()
        if recorder is not None:
            bundle = recorder.close()
            print(f"recorded {bundle.event_count} events into "
                  f"{args.record}", file=sys.stderr)
    if server is not None:
        _hold_serving(server)
        server.stop()
    return rc


def _run_experiments(args, names, telemetry_on, want_events,
                     all_events, bus=None) -> int:
    for name in names:
        start = time.time()
        if telemetry_on:
            from repro.telemetry import (format_metrics_table,
                                         telemetry_session)
            if bus is not None:
                bus.publish_meta("run_start", experiment=name)
            with telemetry_session(metrics=(args.metrics or want_events
                                            or bus is not None),
                                   trace=want_events or bus is not None,
                                   profile=args.profile,
                                   bus=bus) as session:
                output = run_experiment(name, quick=not args.full,
                                        jobs=args.jobs, cache=False)
            if bus is not None:
                bus.publish_meta("run_end", experiment=name,
                                 elapsed_s=time.time() - start)
            extra = []
            if args.metrics:
                extra.append(format_metrics_table(
                    session.registry, title=f"Metrics ({name})"))
            if args.profile and session.profile is not None:
                extra.append(session.profile.render_table())
            if extra:
                output.text = "\n\n".join([output.text] + extra)
            # Prefix tracks with the experiment id so multi-experiment
            # invocations stay distinguishable in one trace file.
            all_events.extend(
                (f"{name}/{track}", t, point, subject, detail)
                for track, t, point, subject, detail in session.events)
        else:
            output = run_experiment(name, quick=not args.full, jobs=args.jobs,
                                    cache=not args.no_cache)
        elapsed = time.time() - start
        banner = f"=== {name} ({elapsed:.1f}s) "
        print(banner + "=" * max(0, 72 - len(banner)))
        print(output.text)
        print()
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(output.text + "\n")
    if want_events:
        from repro.telemetry import (write_chrome_trace, write_jsonl,
                                     write_timeline)
        if args.trace is not None:
            n = write_chrome_trace(all_events, args.trace)
            print(f"wrote {n} trace records to {args.trace}")
        if args.trace_jsonl is not None:
            n = write_jsonl(all_events, args.trace_jsonl)
            print(f"wrote {n} events to {args.trace_jsonl}")
        if args.timeline is not None:
            n = write_timeline(all_events, args.timeline)
            print(f"wrote {n} connection timeline(s) to {args.timeline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
