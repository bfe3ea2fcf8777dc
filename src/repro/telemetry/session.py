"""Ambient telemetry session: one switchboard for a whole run.

A :class:`TelemetrySession` is activated with :func:`telemetry_session`
around an experiment.  While active, instrumented components discover it
through three module-level hooks:

* :func:`active_metrics` — the shared :class:`MetricsRegistry` (or
  ``None``), looked up once at construction time so the per-event cost
  stays one ``is None`` check;
* :func:`register_trace` — components hand over their
  :class:`~repro.sim.trace.TraceBuffer` under a track name; the session
  enables it when event export was requested;
* :func:`attach_environment` — called from ``Environment.__init__`` so
  engine self-profiling can be switched on without the model layers
  knowing about it.

The active session lives in a **module global**.  Pool workers do not
rely on inheriting it: :func:`repro.sim.pool.sweep` ships the session's
metrics/trace/profile switches with every chunk, and the worker (or the
serial path, for parity) runs each task under :func:`nested_session`, a
fresh session around one task; its :meth:`~TelemetrySession.
export_payload` result travels back to the parent, which merges it in
task order — so serial and parallel runs aggregate identically.

A session may additionally carry a live :class:`~repro.telemetry.
stream.TelemetryBus`.  While the bus has consumers (an SSE server, a
run recorder), every environment built under the session gets a
heartbeat :class:`~repro.telemetry.stream.StreamTap`, collected trace
events are published as they drain, and worker payloads stream at
absorb time — so an observer watches the run *while it executes*
instead of reading files afterwards.  With no consumers none of this
happens: no tap is scheduled and the run stays bit-identical to one
without a bus.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import MeasurementError
from repro.sim.trace import TraceBuffer
from repro.telemetry.profiling import EngineProfiler
from repro.telemetry.registry import MetricsRegistry

__all__ = ["TelemetrySession", "telemetry_session", "nested_session",
           "active_session", "active_metrics", "active_bus",
           "register_trace", "attach_environment"]

#: Scrubbed trace record: (track, time, point, subject, detail).
EventTuple = Tuple[str, float, str, Any, Dict[str, Any]]

_PRIMITIVES = (bool, int, float, str, type(None))

_ACTIVE: Optional["TelemetrySession"] = None


def _scrub(value: Any) -> Any:
    """JSON-/pickle-safe stand-in for a traced value.

    Model objects (connections, sk_buffs, hosts) are reduced to their
    ``name``/``ident`` or type name: trace payloads cross process
    boundaries and must not drag generators along.
    """
    if isinstance(value, _PRIMITIVES):
        return value
    for attr in ("name", "ident"):
        label = getattr(value, attr, None)
        if isinstance(label, _PRIMITIVES) and label is not None:
            return label
    return type(value).__name__


class TelemetrySession:
    """Collects metrics, trace events and engine profiles for one run."""

    def __init__(self, metrics: bool = True, trace: bool = False,
                 profile: bool = False, bus: Optional[Any] = None):
        self.metrics_enabled = metrics
        self.trace_enabled = trace
        self.profile_enabled = profile
        self.registry = MetricsRegistry()
        self.profile: Optional[EngineProfiler] = (
            EngineProfiler() if profile else None)
        self.bus = bus
        self.events: List[EventTuple] = []
        self._tracks: List[Tuple[str, TraceBuffer]] = []
        self._track_names: Dict[str, int] = {}
        self.trace_dropped: Dict[str, int] = {}
        self._streamed = 0  # events already published onto the bus
        self._taps: List[Any] = []

    # -- component hooks ----------------------------------------------------
    def add_track(self, name: str, buffer: TraceBuffer) -> str:
        """Adopt a component's trace buffer under ``name``.

        Duplicate names get a ``#2``, ``#3``... suffix so repeated
        topologies in one session keep distinct tracks.  The buffer is
        switched on only when the session wants events.
        """
        count = self._track_names.get(name, 0) + 1
        self._track_names[name] = count
        track = name if count == 1 else f"{name}#{count}"
        self._tracks.append((track, buffer))
        if self.trace_enabled:
            buffer.enabled = True
        return track

    # -- collection ----------------------------------------------------------
    def collect_local(self) -> None:
        """Drain adopted trace buffers into ``self.events`` (idempotent).

        Ring overruns are folded into the cumulative per-track
        ``trace_dropped`` tally (the buffers reset their own counter on
        ``clear``) and surfaced live through the
        ``telemetry.trace_dropped`` gauge, so a streaming client sees
        backpressure as it happens instead of in a post-mortem export.
        """
        for track, buffer in self._tracks:
            for ev in buffer:
                self.events.append((
                    track, ev.time, ev.point, _scrub(ev.subject),
                    {k: _scrub(v) for k, v in ev.detail.items()}))
            if buffer.dropped:
                self._count_dropped(track, buffer.dropped)
            buffer.clear()
        self._stream_new_events()

    def _count_dropped(self, track: str, dropped: int) -> None:
        total = self.trace_dropped.get(track, 0) + dropped
        self.trace_dropped[track] = total
        if self.metrics_enabled:
            self.registry.gauge("telemetry.trace_dropped",
                                track=track).set(total)

    def _stream_new_events(self) -> None:
        """Publish events not yet seen by the bus (no-op without one).

        ``_streamed`` is a prefix index into ``self.events``; it only
        advances when the bus actually accepts events (consumers
        attached, same process), so a forked worker's payload arrives
        with ``streamed == 0`` and the parent publishes on its behalf.
        """
        bus = self.bus
        if bus is None or not bus.streaming:
            return
        events = self.events
        for track, time, point, subject, detail in events[self._streamed:]:
            bus.publish_trace(track, time, point, subject, detail)
        self._streamed = len(events)

    def export_payload(self) -> Dict[str, Any]:
        """Picklable dump of everything this session collected."""
        self.collect_local()
        return {
            "events": self.events,
            "metrics": self.registry.snapshot() if self.metrics_enabled else [],
            "profile": self.profile.snapshot() if self.profile else None,
            "trace_dropped": dict(self.trace_dropped),
            "streamed": self._streamed,
        }

    def absorb(self, payload: Dict[str, Any], prefix: str = "") -> None:
        """Merge a worker payload: events append (tracks prefixed),
        metrics merge by kind, profiles accumulate, trace-ring drop
        counts add under their prefixed tracks.

        Events the producing session could not stream itself (it ran in
        a forked worker, where the bus no-ops) are published now, so
        parallel sweeps stay observable live at task granularity; the
        payload's ``streamed`` prefix count prevents double-publishing
        on the serial path, where the nested session already streamed
        its events as they happened.
        """
        self._stream_new_events()  # parent backlog first, in order
        bus = self.bus
        live = bus is not None and bus.streaming
        already = payload.get("streamed", 0)
        for i, (track, time, point, subject, detail) in enumerate(
                payload["events"]):
            self.events.append((prefix + track, time, point, subject, detail))
            if live and i >= already:
                bus.publish_trace(prefix + track, time, point, subject,
                                  detail)
        if live:
            self._streamed = len(self.events)
        if payload["metrics"]:
            # trace_dropped gauges are re-derived below under prefixed
            # tracks; merging the worker's unprefixed series would alias
            # every worker's count onto one label.
            metrics = [entry for entry in payload["metrics"]
                       if entry["name"] != "telemetry.trace_dropped"]
            if metrics:
                self.registry.merge_snapshot(metrics)
        if payload["profile"] is not None and self.profile is not None:
            self.profile.merge_snapshot(payload["profile"])
        for track, dropped in payload.get("trace_dropped", {}).items():
            if dropped:
                self._count_dropped(prefix + track, dropped)

    # -- streaming ----------------------------------------------------------
    def attach_tap(self, env: Any) -> None:
        """Schedule a heartbeat :class:`~repro.telemetry.stream.
        StreamTap` on ``env`` when the bus has consumers (no-op —
        and therefore bit-identity-preserving — otherwise)."""
        bus = self.bus
        if bus is None or not bus.streaming:
            return
        from repro.telemetry.stream import StreamTap
        self._taps.append(StreamTap(bus, self, env))

    def _finish_streaming(self) -> None:
        """Final flush at session teardown: one last tick per tap."""
        for tap in self._taps:
            tap.flush()
            tap.cancel()
        self._taps.clear()


# -- ambient lookup -------------------------------------------------------------
def active_session() -> Optional[TelemetrySession]:
    """The session currently collecting, or ``None``."""
    return _ACTIVE


def active_metrics() -> Optional[MetricsRegistry]:
    """The active session's registry when metrics are on, else ``None``.

    Components call this once in ``__init__`` and keep the result; the
    steady-state cost of disabled metrics is one ``is None`` test.
    """
    session = _ACTIVE
    if session is not None and session.metrics_enabled:
        return session.registry
    return None


def active_bus() -> Optional[Any]:
    """The active session's :class:`~repro.telemetry.stream.
    TelemetryBus`, or ``None``.  Rare-event publishers (the chaos
    injector, run-lifecycle markers) look the bus up through this hook;
    per-event cost without one is a single ``is None`` test.
    """
    session = _ACTIVE
    return session.bus if session is not None else None


def register_trace(name: str, buffer: TraceBuffer) -> None:
    """Offer a component's trace buffer to the active session (no-op
    when none is active)."""
    session = _ACTIVE
    if session is not None:
        session.add_track(name, buffer)


def attach_environment(env: Any) -> None:
    """Hook called by ``Environment.__init__``: enables engine
    self-profiling and schedules the streaming heartbeat tap when the
    active session asked for either."""
    session = _ACTIVE
    if session is None:
        return
    if session.profile is not None:
        env.enable_profiling(session.profile)
    if session.bus is not None:
        session.attach_tap(env)


# -- activation ----------------------------------------------------------------
@contextlib.contextmanager
def telemetry_session(metrics: bool = True, trace: bool = False,
                      profile: bool = False, bus: Optional[Any] = None
                      ) -> Iterator[TelemetrySession]:
    """Activate a fresh top-level session for the duration of the block.

    ``bus`` attaches a :class:`~repro.telemetry.stream.TelemetryBus`
    for live streaming (see docs/OBSERVABILITY.md, "Live streaming &
    replay")."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise MeasurementError("a telemetry session is already active; "
                               "use nested_session() inside workers")
    session = TelemetrySession(metrics=metrics, trace=trace, profile=profile,
                               bus=bus)
    _ACTIVE = session
    try:
        yield session
    finally:
        session.collect_local()
        session._finish_streaming()
        _ACTIVE = None


@contextlib.contextmanager
def nested_session(metrics: bool = True, trace: bool = False,
                   profile: bool = False) -> Iterator[TelemetrySession]:
    """Swap in a fresh session, restoring the previous one afterwards.

    Used around a single sweep task — in a forked worker (which
    inherited the parent's session object through the fork) and on the
    serial path alike, so both aggregate through the same code.  The
    nested session inherits the enclosing session's bus (if any): on
    the serial path that keeps each sweep point streaming live, and in
    a forked worker the inherited bus no-ops by pid, so nothing is
    double-published.
    """
    global _ACTIVE
    previous = _ACTIVE
    session = TelemetrySession(metrics=metrics, trace=trace, profile=profile,
                               bus=previous.bus if previous else None)
    _ACTIVE = session
    try:
        yield session
    finally:
        session.collect_local()
        session._finish_streaming()
        _ACTIVE = previous
