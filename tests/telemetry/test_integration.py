"""End-to-end telemetry: live points, profiling, sweep-worker parity.

The contract tested here is the whole reason the telemetry stack exists:

* every point posted by a real simulation is in the catalog, and at
  least 25 distinct points fire across the hw/oskernel/tcp/net layers;
* engine self-profiling attributes events and wall-clock to components;
* a parallel sweep merges to the *identical* metrics a serial sweep
  produces (events match in shape; idents differ across processes).
"""

from collections import Counter as TallyCounter

from repro.config import TuningConfig
from repro.net.topology import BackToBack, ThroughSwitch, build_wan_path
from repro.sim import Environment
from repro.sim.pool import job_context, sweep
from repro.tcp.connection import TcpConnection
from repro.telemetry.points import CATALOG
from repro.telemetry.profiling import EngineProfiler, component_of
from repro.telemetry.session import telemetry_session
from repro.tools.nttcp import nttcp_run


def _stream(env, conn, payload, count):
    def app():
        yield from conn.send_stream(payload, count)
        yield from conn.wait_delivered(payload * count)

    env.run(until=env.process(app()))


def _lossy_back_to_back():
    """Fig 2(a) with one dropped segment: exercises the recovery points."""
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
    conn = TcpConnection(env, bb.a, bb.b)
    inner = bb.links[0].sink
    counter = {"n": 0}

    def dropping_receive(skb):
        if skb.kind == "data" and not skb.meta.get("retransmit"):
            counter["n"] += 1
            if counter["n"] == 20:
                return  # one-time loss
        inner.receive_frame(skb)

    bb.links[0].connect(
        type("Tap", (), {"receive_frame": staticmethod(dropping_receive)})())
    _stream(env, conn, 8948, 96)
    return conn


def _through_switch():
    env = Environment()
    ts = ThroughSwitch.create(env, TuningConfig.oversized_windows(9000))
    conn = TcpConnection(env, ts.a, ts.b)
    _stream(env, conn, 8948, 32)
    return conn


def _wan():
    env = Environment()
    tb = build_wan_path(env, TuningConfig.wan_tuned(buf=1 << 21))
    for p in (tb.forward, tb.reverse):
        p.oc192.propagation_s *= 0.01
        p.oc48.propagation_s *= 0.01
    conn = TcpConnection(env, tb.sunnyvale, tb.geneva)
    _stream(env, conn, 8948, 64)
    return conn


class TestLivePoints:
    def test_25_plus_cataloged_points_fire_across_all_layers(self):
        with telemetry_session(metrics=True, trace=True) as session:
            _lossy_back_to_back()
            _through_switch()
            wan_conn = _wan()
        points = TallyCounter(point for _, _, point, _, _ in session.events)
        uncataloged = set(points) - set(CATALOG)
        assert not uncataloged, f"posted points missing from CATALOG: " \
                                f"{sorted(uncataloged)}"
        assert len(points) >= 25, sorted(points)
        layers = {CATALOG[p].layer for p in points}
        assert layers == {"hw", "oskernel", "tcp", "net"}
        # the recovery path fired
        assert points["tcp.tx.retransmit"] >= 1
        assert points["tcp.rx.ooo"] >= 1
        # the network devices fired
        assert points["switch.forward"] >= 32
        assert points["wan.forward"] >= 64
        assert points["pos.tx"] >= 64
        # metrics agree with the model's own statistics where they overlap
        reg = session.registry
        sent = reg.counter("tcp.tx.segments", host="sunnyvale").value
        assert sent == wan_conn.sender.segments_sent

    def test_tracks_follow_component_names(self):
        with telemetry_session(metrics=False, trace=True) as session:
            _through_switch()
        tracks = {track for track, *_ in session.events}
        assert "hostA" in tracks and "hostB" in tracks
        assert "fastiron" in tracks


class TestEngineProfiling:
    def test_profile_attributes_events_and_components(self):
        with telemetry_session(metrics=False, profile=True) as session:
            env = Environment()
            bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
            conn = TcpConnection(env, bb.a, bb.b)
            _stream(env, conn, 8948, 32)
        prof = session.profile
        assert prof.events_total > 0
        assert prof.heap_hwm >= 1
        assert prof.wall_time_s > 0
        assert sum(prof.event_counts.values()) == prof.events_total
        # the sender's transmit chain is callback entries, one row per
        # function whatever the host; no process row is left for it
        assert prof.callback_counts["TcpSender._pump_sent"] \
            == conn.sender.segments_sent
        assert "tcp.pump" not in prof.callback_counts
        assert not any(key.startswith("hostA.") for key in prof.callback_counts)
        table = prof.render_table()
        assert "Engine profile" in table
        assert "wall-clock by component" in table

    def test_fig3_point_labels_every_callback(self):
        """Callback entries are labelled by their function, so a Fig. 3
        transfer (train path, almost all callbacks) has no anonymous row."""
        with telemetry_session(metrics=False, profile=True) as session:
            env = Environment()
            bb = BackToBack.create(env, TuningConfig.stock(1500))
            conn = TcpConnection(env, bb.a, bb.b)
            nttcp_run(env, conn, 8192, 32)
        prof = session.profile
        assert "(callback)" not in prof.callback_counts
        assert prof.event_counts["Call"] > 0
        assert sum(prof.event_counts.values()) == prof.events_total
        assert any(key.startswith("TenGigAdapter.")
                   for key in prof.callback_counts)

    def test_component_of_strips_instances(self):
        assert component_of("netpipe.ping") == "ping"
        assert component_of("oc192#17") == "oc192"
        assert component_of("pktgen") == "pktgen"

    def test_profiles_merge_additively(self):
        a, b = EngineProfiler(), EngineProfiler()
        a.event_counts["Timeout"] = 3
        a.events_total = 3
        a.heap_hwm = 5
        b.event_counts["Timeout"] = 2
        b.events_total = 2
        b.heap_hwm = 9
        a.merge_snapshot(b.snapshot())
        assert a.event_counts["Timeout"] == 5
        assert a.events_total == 5
        assert a.heap_hwm == 9

    def test_disabled_profiling_attaches_nothing(self):
        env = Environment()
        assert env._profiler is None


class TestPerfCounterPoints:
    """The PR-3 performance counters publish through the session."""

    def test_tx_train_frames_counter_matches_nic(self):
        with telemetry_session(metrics=True) as session:
            env = Environment()
            bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
            conn = TcpConnection(env, bb.a, bb.b)
            _stream(env, conn, 8948, 64)
        nic = bb.a.adapters[0]
        counter = session.registry.counter("nic.tx_train_frames",
                                           nic=nic.name)
        assert counter.value == nic.tx_train_frames.total
        # every data frame rode a train, and bursts formed
        assert counter.value >= 64
        assert nic.mean_train_size() > 1.0


def _sweep_point(task):
    """Module-level worker (pickled into pool processes)."""
    payload, count = task
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
    conn = TcpConnection(env, bb.a, bb.b)
    _stream(env, conn, payload, count)
    return conn.receiver.bytes_delivered


class TestSweepParity:
    TASKS = [(8948, 8), (8948, 16), (1448, 8)]

    def _run(self, jobs):
        with job_context(jobs), \
                telemetry_session(metrics=True, trace=True) as session:
            results = sweep(_sweep_point, self.TASKS)
        return results, session.registry.snapshot(), session.events

    def test_parallel_metrics_identical_to_serial(self):
        r_serial, m_serial, e_serial = self._run(1)
        r_par, m_par, e_par = self._run(2)
        assert r_serial == r_par
        # the acceptance criterion: merged *simulation* metrics are
        # bit-identical.  Dispatch-harness counters (pool.*) describe how
        # the sweep was scheduled and intentionally vary with job count,
        # like wall-clock — they are outside the parity contract.
        def sim_metrics(snapshot):
            return [m for m in snapshot if not m["name"].startswith("pool.")]
        assert sim_metrics(m_serial) == sim_metrics(m_par)
        # ...and the parallel run does record its dispatch traffic
        assert any(m["name"] == "pool.tasks_dispatched" and
                   m["data"]["value"] == len(self.TASKS) for m in m_par)
        # events match in shape: same per-track point tallies.  (Subject
        # idents come from process-global counters, so the raw tuples
        # differ between one process and a forked pool.)
        def shape(events):
            return TallyCounter((track, point)
                                for track, _, point, _, _ in events)
        assert shape(e_serial) == shape(e_par)

    def test_worker_events_prefixed_by_task_index(self):
        _, _, events = self._run(2)
        prefixes = {track.split("/")[0] for track, *_ in events}
        assert len(prefixes) == len(self.TASKS)
        assert all("[" in p and p.endswith("]") for p in prefixes)
