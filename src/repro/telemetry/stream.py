"""Live telemetry streaming: the event bus, heartbeat tap and recorder.

The paper's whole methodology is *watching the system while it runs* —
tcptrace timelines, interrupt-coalescing sweeps, the §5 loss-incident
analysis.  The file exporters (PR 2) only tell that story after the
fact; this module makes the same event flow observable in flight:

* :class:`TelemetryBus` — an in-process publish/subscribe switchboard.
  Metric samples, trace events, chaos fire/recover notifications and
  engine-progress heartbeats are all published as plain JSON-safe
  dicts.  Each subscriber owns a **bounded ring** (``deque(maxlen)``)
  with an exact per-subscriber ``dropped`` counter, so a slow consumer
  backpressures by shedding *its own* oldest events, never by stalling
  the simulation.  With no subscriber attached ``publish`` is a single
  truthiness test and the heartbeat tap is never scheduled — runs
  without an observer stay bit-identical to runs without a bus.
* :class:`StreamTap` — the per-environment heartbeat.  Attached from
  :func:`repro.telemetry.session.attach_environment` through
  ``Environment.every()``, each tick drains the session's trace
  buffers onto the bus, publishes the *changed* metric series since the
  previous tick (see :func:`repro.telemetry.registry.diff_snapshots`)
  and a heartbeat with engine progress counters.
* :class:`RunRecorder` — a lossless synchronous subscriber persisting
  the stream into a versioned ``.reprorun`` bundle: a directory with a
  ``manifest.json`` plus gzipped JSONL segments.  :func:`load_bundle`
  reads one back and can re-drive any consumer (:meth:`RunBundle.
  replay`) for deterministic, bit-identical replay — the interchange
  format the future job server will stream from.

Threading model: the simulation publishes from its own (usually main)
thread; ``deque.append`` / ``popleft`` are atomic, so a consumer thread
(the SSE server) may drain a subscription ring without locks.  Fork
safety: both the bus and the recorder remember their creating pid and
turn into no-ops inside forked sweep workers — the parent re-publishes
worker payloads when it absorbs them, so nothing is double-counted and
no gzip stream is ever written from two processes.
"""

from __future__ import annotations

import gzip
import json
import os
import pathlib
import shutil
from collections import deque
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    Union)

from repro.errors import MeasurementError
from repro.telemetry.registry import diff_snapshots

__all__ = ["TelemetryBus", "Subscription", "StreamTap", "RunRecorder",
           "RunBundle", "load_bundle", "BUNDLE_FORMAT",
           "DEFAULT_STREAM_TICK_S"]

PathLike = Union[str, pathlib.Path]

#: Bundle format tag written into every manifest (bump on layout change).
BUNDLE_FORMAT = "reprorun-v1"

#: Default heartbeat interval in *simulation* seconds.  The reference
#: workloads simulate milliseconds-to-seconds of wire time, so 1 ms
#: yields tens-to-thousands of samples without drowning the stream.
DEFAULT_STREAM_TICK_S = 1e-3

#: Default per-subscriber ring bound (events pending, not yet drained).
DEFAULT_RING = 65_536


class Subscription:
    """One consumer's bounded view of the bus.

    Events accumulate in a ring (``deque(maxlen=max_pending)``); when
    the consumer falls behind, the oldest pending events are shed and
    ``dropped`` counts them exactly — the same overrun discipline as
    :class:`~repro.sim.trace.TraceBuffer`.  ``drain()`` empties the
    ring; it is safe to call from a different thread than the
    publisher's.
    """

    __slots__ = ("name", "max_pending", "dropped", "delivered", "_ring",
                 "_bus")

    def __init__(self, bus: "TelemetryBus", name: str, max_pending: int):
        if max_pending < 1:
            raise MeasurementError("max_pending must be >= 1")
        self.name = name
        self.max_pending = max_pending
        self.dropped = 0
        self.delivered = 0
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=max_pending)
        self._bus = bus

    def _push(self, event: Dict[str, Any]) -> None:
        ring = self._ring
        if len(ring) == self.max_pending:
            self.dropped += 1  # deque(maxlen) evicts the oldest
        ring.append(event)
        self.delivered += 1

    def pending(self) -> int:
        """Events queued but not yet drained."""
        return len(self._ring)

    def drain(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Remove and return up to ``limit`` pending events (all when
        ``None``), oldest first."""
        ring = self._ring
        out: List[Dict[str, Any]] = []
        try:
            while limit is None or len(out) < limit:
                out.append(ring.popleft())
        except IndexError:
            pass
        return out

    def close(self) -> None:
        """Detach from the bus; pending events stay drainable."""
        self._bus._detach(self)


class TelemetryBus:
    """In-process pub/sub switchboard for live run telemetry.

    Publishing stamps each event with a monotonically increasing
    ``seq`` (the replay identity key) and fans it out to every ring
    subscriber plus every synchronous sink.  **With no consumers the
    publish path is one truthiness test** and returns ``None`` without
    assigning a sequence number, so an idle bus leaves no trace in the
    event flow.
    """

    def __init__(self):
        self._subs: List[Subscription] = []
        self._sinks: List[Callable[[Dict[str, Any]], None]] = []
        self._seq = 0
        self.published = 0
        self._pid = os.getpid()

    # -- consumers ----------------------------------------------------------
    @property
    def has_consumers(self) -> bool:
        """Whether anything would observe a published event."""
        return bool(self._subs or self._sinks)

    @property
    def streaming(self) -> bool:
        """Whether a publish from *this* process would be observed:
        consumers attached and not inside a forked worker."""
        return bool(self._subs or self._sinks) and os.getpid() == self._pid

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently published event."""
        return self._seq

    def subscribe(self, name: str = "",
                  max_pending: int = DEFAULT_RING) -> Subscription:
        """Attach a ring subscriber (drained by polling)."""
        sub = Subscription(self, name or f"sub{len(self._subs)}",
                           max_pending)
        self._subs.append(sub)
        return sub

    def add_sink(self, sink: Callable[[Dict[str, Any]], None]) -> None:
        """Attach a synchronous, lossless consumer (e.g. a recorder).

        Sinks run inline on the publishing thread; they must be fast
        and must not publish back into the bus.
        """
        self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[Dict[str, Any]], None]) -> None:
        """Detach a previously added sink (no-op when absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    def _detach(self, sub: Subscription) -> None:
        try:
            self._subs.remove(sub)
        except ValueError:
            pass

    # -- publishing ---------------------------------------------------------
    def publish(self, kind: str,
                payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Fan ``payload`` out as one ``kind`` event; returns the stamped
        event, or ``None`` when nobody is listening (zero-cost path).

        ``payload`` must be JSON-safe; the bus adds ``seq`` and
        ``kind`` keys (shallow-copying, so callers may reuse dicts).
        """
        if not (self._subs or self._sinks):
            return None
        if os.getpid() != self._pid:
            # Forked sweep worker: its events travel back in the task
            # payload and are re-published by the parent's absorb().
            return None
        self._seq += 1
        event = {"seq": self._seq, "kind": kind}
        event.update(payload)
        self.published += 1
        for sub in self._subs:
            sub._push(event)
        for sink in self._sinks:
            sink(event)
        return event

    # -- convenience publishers --------------------------------------------
    def publish_trace(self, track: str, time: float, point: str,
                      subject: Any, detail: Dict[str, Any]) -> None:
        """Publish one scrubbed trace event (see session.collect_local)."""
        self.publish("trace", {"track": track, "time": time, "point": point,
                               "subject": subject, "detail": detail})

    def publish_meta(self, event: str, **fields: Any) -> None:
        """Publish a run-lifecycle marker (run_start, run_end...)."""
        payload = {"event": event}
        payload.update(fields)
        self.publish("meta", payload)


class StreamTap:
    """Per-environment heartbeat pump feeding a :class:`TelemetryBus`.

    Created by :func:`repro.telemetry.session.attach_environment` when
    the active session carries a bus **with consumers**; never created
    otherwise, so observer-less runs schedule no extra events.  Each
    tick (one :class:`~repro.sim.engine.PeriodicCall`):

    1. drains the session's adopted trace buffers (``collect_local`` —
       which itself streams the freshly collected events, see
       :mod:`repro.telemetry.session`),
    2. publishes the metric series that changed since the last tick,
    3. publishes an engine heartbeat (sim time, events scheduled,
       pending count).
    """

    __slots__ = ("bus", "session", "env", "interval_s", "_last_metrics",
                 "_periodic", "ticks")

    def __init__(self, bus: TelemetryBus, session: Any, env: Any):
        self.bus = bus
        self.session = session
        self.env = env
        self.interval_s = DEFAULT_STREAM_TICK_S
        self._last_metrics: List[Dict[str, Any]] = []
        self.ticks = 0
        # while_pending: the heartbeat must never be the event keeping
        # a drain-mode run() alive (see PeriodicCall).
        self._periodic = env.every(self.interval_s, self.tick,
                                   while_pending=True)

    def tick(self) -> None:
        """One heartbeat: trace drain + metric delta + progress."""
        bus = self.bus
        if not bus.streaming:
            return
        self.ticks += 1
        session = self.session
        session.collect_local()  # streams fresh trace events itself
        env = self.env
        now = env.now
        if session.metrics_enabled:
            snapshot = session.registry.snapshot()
            changed = diff_snapshots(self._last_metrics, snapshot)
            if changed:
                bus.publish("metrics", {"time": now, "changed": changed})
                self._last_metrics = snapshot
        bus.publish("heartbeat", {
            "time": now,
            "events_scheduled": env.events_scheduled,
            "pending": env.pending_count(),
        })

    def flush(self) -> None:
        """Publish any final state (called at session teardown)."""
        self.tick()

    def cancel(self) -> None:
        """Stop the periodic heartbeat."""
        self._periodic.cancel()


# -- run recording ------------------------------------------------------------
class RunRecorder:
    """Persists a bus stream into a ``.reprorun`` bundle directory.

    The bundle is a directory (conventionally named ``*.reprorun``)
    holding ``manifest.json`` plus numbered ``segment-NNNNN.jsonl.gz``
    files, each at most ``segment_events`` events of JSONL (sorted
    keys, one event per line) — bounded segments keep any one file
    cheap to load and let a streaming job server ship them
    incrementally.  The recorder subscribes synchronously (lossless;
    ``dropped`` is structurally zero and recorded as such) and is
    fork-safe: a forked sweep worker inherits the object but its
    ``record`` calls no-op, so segments are only ever written by the
    creating process.
    """

    def __init__(self, bus: TelemetryBus, path: PathLike,
                 segment_events: int = 100_000,
                 overwrite: bool = False):
        if segment_events < 1:
            raise MeasurementError("segment_events must be >= 1")
        self.path = pathlib.Path(path)
        if self.path.exists():
            if not overwrite:
                raise MeasurementError(
                    f"bundle path exists: {self.path} (pass overwrite=True)")
            shutil.rmtree(self.path)
        self.path.mkdir(parents=True)
        self.bus = bus
        self.segment_events = segment_events
        self.event_count = 0
        self.segments: List[Dict[str, Any]] = []
        self.meta: Dict[str, Any] = {}
        self._pid = os.getpid()
        self._fh: Optional[Any] = None
        self._segment_count = 0
        self._first_seq: Optional[int] = None
        self._last_seq: Optional[int] = None
        self._closed = False
        bus.add_sink(self.record)

    # -- sink ---------------------------------------------------------------
    def record(self, event: Dict[str, Any]) -> None:
        """Append one event to the current segment (the bus sink)."""
        if self._closed or os.getpid() != self._pid:
            return
        if self._fh is None:
            self._open_segment()
        self._fh.write(json.dumps(event, sort_keys=True))
        self._fh.write("\n")
        seq = event.get("seq")
        if self._first_seq is None:
            self._first_seq = seq
        self._last_seq = seq
        self.event_count += 1
        self._segment_count += 1
        if self._segment_count >= self.segment_events:
            self._close_segment()

    # -- segment lifecycle --------------------------------------------------
    def _segment_name(self) -> str:
        return f"segment-{len(self.segments):05d}.jsonl.gz"

    def _open_segment(self) -> None:
        name = self._segment_name()
        self._fh = gzip.open(self.path / name, "wt", encoding="utf-8")
        self._segment_count = 0
        self._first_seq = None
        self._last_seq = None

    def _close_segment(self) -> None:
        if self._fh is None:
            return
        self._fh.close()
        self.segments.append({
            "file": self._segment_name(),
            "events": self._segment_count,
            "first_seq": self._first_seq,
            "last_seq": self._last_seq,
        })
        self._fh = None
        self._segment_count = 0

    def close(self) -> "RunBundle":
        """Finalize: flush the open segment, write the manifest, detach
        from the bus and return the loaded :class:`RunBundle`."""
        if not self._closed:
            self._close_segment()
            self._closed = True
            self.bus.remove_sink(self.record)
            manifest = {
                "format": BUNDLE_FORMAT,
                "event_count": self.event_count,
                "dropped": 0,  # synchronous sink: structurally lossless
                "segments": self.segments,
                "meta": self.meta,
            }
            (self.path / "manifest.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        return load_bundle(self.path)

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class RunBundle:
    """A loaded ``.reprorun`` bundle: manifest + lazily-read events."""

    def __init__(self, path: pathlib.Path, manifest: Dict[str, Any]):
        self.path = path
        self.manifest = manifest

    @property
    def event_count(self) -> int:
        """Total recorded events per the manifest."""
        return self.manifest["event_count"]

    @property
    def meta(self) -> Dict[str, Any]:
        """Free-form run metadata captured at record time."""
        return self.manifest.get("meta", {})

    def iter_events(self) -> Iterator[Dict[str, Any]]:
        """Yield every recorded event in original (seq) order."""
        for segment in self.manifest["segments"]:
            seg_path = self.path / segment["file"]
            with gzip.open(seg_path, "rt", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        yield json.loads(line)

    def events(self) -> List[Dict[str, Any]]:
        """All recorded events as a list."""
        return list(self.iter_events())

    def replay(self, consumer: Callable[[Dict[str, Any]], None]) -> int:
        """Re-drive ``consumer`` with every event in order; returns the
        count delivered.  Replaying the same bundle into two consumers
        yields bit-identical sequences — the determinism contract."""
        count = 0
        for event in self.iter_events():
            consumer(event)
            count += 1
        return count

    def replay_onto(self, bus: TelemetryBus) -> int:
        """Republish the recorded stream onto a live bus (events keep
        their recorded payloads; the bus re-stamps ``seq``)."""
        count = 0
        for event in self.iter_events():
            payload = {k: v for k, v in event.items()
                       if k not in ("seq", "kind")}
            bus.publish(event["kind"], payload)
            count += 1
        return count

    def summary(self) -> Dict[str, Any]:
        """Counts by event kind plus chaos/experiment highlights —
        the cheap integrity view (`python -m repro --replay` prints it).
        """
        kinds: Dict[str, int] = {}
        points: Dict[str, int] = {}
        chaos: List[Dict[str, Any]] = []
        experiments: List[str] = []
        first_time: Optional[float] = None
        last_time: Optional[float] = None
        for event in self.iter_events():
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
            t = event.get("time")
            if isinstance(t, (int, float)):
                if first_time is None:
                    first_time = t
                last_time = t
            if event["kind"] == "trace":
                point = event.get("point", "?")
                points[point] = points.get(point, 0) + 1
            elif event["kind"] == "chaos":
                chaos.append(event)
            elif (event["kind"] == "meta"
                    and event.get("event") == "run_start"
                    and event.get("experiment")):
                experiments.append(event["experiment"])
        return {
            "format": self.manifest["format"],
            "event_count": self.event_count,
            "kinds": kinds,
            "trace_points": points,
            "chaos_events": len(chaos),
            "experiments": experiments,
            "first_time": first_time,
            "last_time": last_time,
        }


def load_bundle(path: PathLike) -> RunBundle:
    """Load a ``.reprorun`` bundle written by :class:`RunRecorder`.

    Validates the manifest format tag and that every listed segment
    file exists, so a truncated copy fails loudly instead of silently
    replaying a prefix.
    """
    path = pathlib.Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.is_file():
        raise MeasurementError(f"not a .reprorun bundle: {path} "
                               f"(no manifest.json)")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    fmt = manifest.get("format")
    if fmt != BUNDLE_FORMAT:
        raise MeasurementError(
            f"unsupported bundle format {fmt!r} (expected {BUNDLE_FORMAT!r})")
    for segment in manifest.get("segments", ()):
        if not (path / segment["file"]).is_file():
            raise MeasurementError(
                f"bundle {path} is missing segment {segment['file']!r}")
    return RunBundle(path, manifest)
