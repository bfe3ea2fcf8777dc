"""Streaming layer: bus semantics, heartbeat tap, recorder bundles."""

import gzip
import json
import os

import pytest

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.net.topology import BackToBack
from repro.sim.engine import Environment
from repro.tcp.connection import TcpConnection
from repro.telemetry import (
    BUNDLE_FORMAT,
    RunRecorder,
    TelemetryBus,
    diff_snapshots,
    load_bundle,
    telemetry_session,
)
from repro.telemetry.stream import DEFAULT_STREAM_TICK_S, StreamTap
from repro.tools.nttcp import nttcp_run


def run_transfer(count=64, payload=8948):
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
    conn = TcpConnection(env, bb.a, bb.b)
    nttcp_run(env, conn, payload=payload, count=count)
    return env


class TestBus:
    def test_publish_without_consumers_is_a_noop(self):
        bus = TelemetryBus()
        assert bus.publish("trace", {"x": 1}) is None
        assert bus.last_seq == 0
        assert bus.published == 0
        assert not bus.has_consumers
        assert not bus.streaming

    def test_publish_stamps_seq_and_kind(self):
        bus = TelemetryBus()
        sub = bus.subscribe("t")
        ev1 = bus.publish("trace", {"point": "a"})
        ev2 = bus.publish("heartbeat", {"time": 1.0})
        assert ev1 == {"seq": 1, "kind": "trace", "point": "a"}
        assert ev2["seq"] == 2 and ev2["kind"] == "heartbeat"
        assert sub.drain() == [ev1, ev2]

    def test_publish_does_not_mutate_caller_payload(self):
        bus = TelemetryBus()
        bus.subscribe()
        payload = {"point": "a"}
        bus.publish("trace", payload)
        assert payload == {"point": "a"}

    def test_ring_sheds_oldest_and_counts_drops(self):
        bus = TelemetryBus()
        sub = bus.subscribe("slow", max_pending=3)
        for i in range(10):
            bus.publish("trace", {"i": i})
        assert sub.dropped == 7
        assert sub.delivered == 10
        assert [ev["i"] for ev in sub.drain()] == [7, 8, 9]
        assert sub.pending() == 0

    def test_drain_limit_and_fifo_order(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        for i in range(5):
            bus.publish("trace", {"i": i})
        assert [ev["i"] for ev in sub.drain(2)] == [0, 1]
        assert [ev["i"] for ev in sub.drain()] == [2, 3, 4]

    def test_closed_subscription_stops_receiving(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        bus.publish("trace", {"i": 0})
        sub.close()
        bus.publish("trace", {"i": 1})
        assert [ev["i"] for ev in sub.drain()] == [0]
        assert not bus.has_consumers

    def test_sink_sees_every_event_synchronously(self):
        bus = TelemetryBus()
        seen = []
        bus.add_sink(seen.append)
        bus.publish("meta", {"event": "x"})
        bus.remove_sink(seen.append)
        bus.publish("meta", {"event": "y"})
        assert [ev["event"] for ev in seen] == ["x"]

    def test_invalid_ring_bound_rejected(self):
        bus = TelemetryBus()
        with pytest.raises(MeasurementError, match="max_pending"):
            bus.subscribe(max_pending=0)

    def test_publish_trace_and_meta_shapes(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        bus.publish_trace("hostA", 1e-3, "tcp.tx.segment", "c1", {"len": 1})
        bus.publish_meta("run_start", experiment="fig3")
        trace, meta = sub.drain()
        assert trace["kind"] == "trace" and trace["track"] == "hostA"
        assert trace["point"] == "tcp.tx.segment"
        assert meta["kind"] == "meta" and meta["experiment"] == "fig3"


class TestDiffSnapshots:
    def test_empty_old_returns_everything(self):
        new = [{"name": "a", "labels": {}, "data": {"value": 1}}]
        assert diff_snapshots([], new) == new

    def test_unchanged_series_elided(self):
        snap = [{"name": "a", "labels": {"h": "x"}, "data": {"value": 1}}]
        assert diff_snapshots(snap, [dict(snap[0])]) == []

    def test_changed_and_new_series_returned(self):
        old = [{"name": "a", "labels": {}, "data": {"value": 1}},
               {"name": "b", "labels": {}, "data": {"value": 5}}]
        new = [{"name": "a", "labels": {}, "data": {"value": 2}},
               {"name": "b", "labels": {}, "data": {"value": 5}},
               {"name": "c", "labels": {}, "data": {"value": 0}}]
        changed = diff_snapshots(old, new)
        assert [e["name"] for e in changed] == ["a", "c"]


class TestStreamTick:
    def test_default(self):
        tap = StreamTap(TelemetryBus(), None, Environment())
        assert tap.interval_s == DEFAULT_STREAM_TICK_S


class TestLiveSession:
    def test_no_consumer_run_is_bit_identical(self):
        """An attached but unobserved bus must not perturb the run."""
        with telemetry_session(trace=True) as plain:
            env_plain = run_transfer()
        with telemetry_session(trace=True, bus=TelemetryBus()) as bussed:
            env_bussed = run_transfer()
        assert env_plain.events_scheduled == env_bussed.events_scheduled
        # subjects/conn labels carry process-global connection idents,
        # so compare everything else
        strip = lambda evs: [
            (tr, t, p, {k: v for k, v in d.items() if k != "conn"})
            for tr, t, p, _, d in evs]
        assert strip(plain.events) == strip(bussed.events)

    def test_live_run_streams_all_event_kinds(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        with telemetry_session(trace=True, bus=bus) as session:
            run_transfer()
        events = sub.drain()
        kinds = {ev["kind"] for ev in events}
        assert {"trace", "metrics", "heartbeat"} <= kinds
        traces = [ev for ev in events if ev["kind"] == "trace"]
        assert len(traces) == len(session.events)

    def test_streamed_traces_match_collected_events(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        with telemetry_session(trace=True, bus=bus) as session:
            run_transfer()
        streamed = [(ev["track"], ev["time"], ev["point"], ev["subject"],
                     ev["detail"]) for ev in sub.drain()
                    if ev["kind"] == "trace"]
        assert streamed == session.events

    def test_serial_nested_sessions_do_not_double_publish(self):
        """The absorb path must skip events the nested session already
        streamed live (the ``streamed`` prefix count)."""
        bus = TelemetryBus()
        sub = bus.subscribe()
        from repro.telemetry import nested_session
        with telemetry_session(trace=True, bus=bus) as outer:
            with nested_session(trace=True) as inner:
                run_transfer()
                payload = inner.export_payload()
            outer.absorb(payload, prefix="w0/")
        traces = [ev for ev in sub.drain() if ev["kind"] == "trace"]
        assert len(traces) == len(payload["events"])

    def test_worker_payload_published_by_parent(self):
        """A payload with ``streamed == 0`` (forked worker) is published
        at absorb time, under the worker prefix."""
        with telemetry_session(trace=True) as produced:
            run_transfer()
            payload = produced.export_payload()
        assert payload["streamed"] == 0
        bus = TelemetryBus()
        sub = bus.subscribe()
        with telemetry_session(trace=True, bus=bus) as parent:
            parent.absorb(payload, prefix="w0/")
        traces = [ev for ev in sub.drain() if ev["kind"] == "trace"]
        assert len(traces) == len(payload["events"])
        assert all(ev["track"].startswith("w0/") for ev in traces)

    def test_heartbeats_carry_engine_progress(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        with telemetry_session(trace=True, bus=bus):
            run_transfer()
        beats = [ev for ev in sub.drain() if ev["kind"] == "heartbeat"]
        assert beats
        assert beats[-1]["events_scheduled"] > 0
        assert set(beats[-1]) == {"seq", "kind", "time", "events_scheduled",
                                  "pending"}
        times = [b["time"] for b in beats]
        assert times == sorted(times)

    def test_trace_dropped_surfaces_as_live_metric(self):
        """Satellite: ring overruns become a ``telemetry.trace_dropped``
        gauge instead of hiding until final export."""
        from repro.sim.trace import TraceBuffer
        from repro.telemetry import register_trace
        with telemetry_session(trace=True) as session:
            buf = TraceBuffer(max_events=4)
            register_trace("tiny", buf)
            for i in range(10):
                buf.post(float(i), "tcp.tx.segment", i)
            session.collect_local()
            for i in range(3):
                buf.post(float(i), "tcp.tx.segment", i)
            buf.post(3.0, "tcp.tx.segment", 3)
            buf.post(4.0, "tcp.tx.segment", 4)
            session.collect_local()
        assert session.trace_dropped["tiny"] == 6 + 1
        snap = {(e["name"], e["labels"].get("track")): e["data"]["value"]
                for e in session.registry.snapshot()
                if e["name"] == "telemetry.trace_dropped"}
        assert snap[("telemetry.trace_dropped", "tiny")] == 7


class TestChaosStreaming:
    def test_chaos_lifecycle_published(self):
        from repro.chaos import FaultPlan, FaultSpec, chaos_session
        plan = FaultPlan(name="t", seed=3, faults=(
            FaultSpec(kind="loss_burst", target="link:*", start_s=1e-4,
                      duration_s=2e-4, probability=0.3),
        ))
        bus = TelemetryBus()
        sub = bus.subscribe()
        with telemetry_session(trace=True, bus=bus):
            with chaos_session(plan):
                run_transfer(count=256)
        chaos = [ev for ev in sub.drain() if ev["kind"] == "chaos"]
        by_event = {ev["event"] for ev in chaos}
        assert {"plan_armed", "armed", "fired", "recovered"} <= by_event
        fired = next(ev for ev in chaos if ev["event"] == "fired")
        assert fired["fault_kind"] == "loss_burst"
        assert fired["time"] >= 1e-4


class TestRecorder:
    def _record(self, tmp_path, n=5, **kwargs):
        bus = TelemetryBus()
        rec = RunRecorder(bus, tmp_path / "run.reprorun", **kwargs)
        for i in range(n):
            bus.publish("trace", {"i": i, "time": i * 0.125})
        return bus, rec

    def test_roundtrip_preserves_events_exactly(self, tmp_path):
        bus, rec = self._record(tmp_path)
        bus.publish("meta", {"event": "run_end", "ratio": 1 / 3})
        bundle = rec.close()
        events = bundle.events()
        assert len(events) == 6 == bundle.event_count
        assert [ev["seq"] for ev in events] == list(range(1, 7))
        assert events[-1]["ratio"] == 1 / 3  # float fidelity via repr

    def test_segment_rotation(self, tmp_path):
        bus, rec = self._record(tmp_path, n=10, segment_events=4)
        bundle = rec.close()
        segs = bundle.manifest["segments"]
        assert [s["events"] for s in segs] == [4, 4, 2]
        assert segs[0]["first_seq"] == 1 and segs[0]["last_seq"] == 4
        assert segs[-1]["last_seq"] == 10
        assert [ev["seq"] for ev in bundle.events()] == list(range(1, 11))

    def test_refuses_existing_path_without_overwrite(self, tmp_path):
        bus, rec = self._record(tmp_path)
        rec.close()
        with pytest.raises(MeasurementError, match="exists"):
            RunRecorder(bus, tmp_path / "run.reprorun")
        RunRecorder(bus, tmp_path / "run.reprorun", overwrite=True).close()

    def test_close_detaches_from_bus(self, tmp_path):
        bus, rec = self._record(tmp_path, n=2)
        bundle = rec.close()
        bus.publish("trace", {"late": True})
        assert bundle.event_count == 2
        assert load_bundle(bundle.path).event_count == 2

    def test_invalid_segment_bound_rejected(self, tmp_path):
        with pytest.raises(MeasurementError, match="segment_events"):
            RunRecorder(TelemetryBus(), tmp_path / "x.reprorun",
                        segment_events=0)

    def test_replay_is_deterministic(self, tmp_path):
        bus, rec = self._record(tmp_path, n=7)
        bundle = rec.close()
        first, second = [], []
        assert bundle.replay(first.append) == 7
        assert bundle.replay(second.append) == 7
        assert first == second

    def test_summary_counts(self, tmp_path):
        bus = TelemetryBus()
        rec = RunRecorder(bus, tmp_path / "run.reprorun")
        bus.publish_meta("run_start", experiment="fig3")
        bus.publish_trace("hostA", 0.25, "tcp.tx.segment", "c", {})
        bus.publish("chaos", {"event": "fired", "time": 0.5})
        summary = rec.close().summary()
        assert summary["kinds"] == {"meta": 1, "trace": 1, "chaos": 1}
        assert summary["trace_points"] == {"tcp.tx.segment": 1}
        assert summary["chaos_events"] == 1
        assert summary["experiments"] == ["fig3"]
        assert summary["first_time"] == 0.25
        assert summary["last_time"] == 0.5


class TestLoadBundleValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MeasurementError, match="manifest"):
            load_bundle(tmp_path)

    def test_unknown_format_tag(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": "reprorun-v999", "event_count": 0,
                        "segments": []}))
        with pytest.raises(MeasurementError, match="format"):
            load_bundle(tmp_path)

    def test_missing_segment_file(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({
            "format": BUNDLE_FORMAT, "event_count": 1,
            "segments": [{"file": "segment-00000.jsonl.gz", "events": 1,
                          "first_seq": 1, "last_seq": 1}]}))
        with pytest.raises(MeasurementError, match="missing segment"):
            load_bundle(tmp_path)

    def test_segments_are_gzip_jsonl(self, tmp_path):
        bus = TelemetryBus()
        rec = RunRecorder(bus, tmp_path / "run.reprorun")
        bus.publish("trace", {"i": 1})
        rec.close()
        seg = tmp_path / "run.reprorun" / "segment-00000.jsonl.gz"
        with gzip.open(seg, "rt", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert json.loads(lines[0]) == {"seq": 1, "kind": "trace", "i": 1}


class TestForkSafety:
    def test_recorder_pid_guard(self, tmp_path):
        """Simulate a forked worker by faking the recorded pid."""
        bus = TelemetryBus()
        rec = RunRecorder(bus, tmp_path / "run.reprorun")
        bus.publish("trace", {"i": 0})
        rec._pid = os.getpid() + 1  # pretend we are a fork child
        bus._pid = os.getpid() + 1
        assert bus.publish("trace", {"i": 1}) is None
        assert not bus.streaming
        rec._pid = os.getpid()
        bus._pid = os.getpid()
        bundle = rec.close()
        assert bundle.event_count == 1
