"""Tests for MAGNET, tcpdump and STREAM tools."""

import pytest

from repro.config import TuningConfig
from repro.errors import MeasurementError
from repro.hw.presets import PE2650, PE4600
from repro.net.topology import BackToBack
from repro.sim import Environment
from repro.tcp.connection import TcpConnection
from repro.tools.magnet import Magnet
from repro.tools.stream_bench import stream_bench
from repro.tools.tcpdump import Tcpdump


def run_traffic(with_magnet=False, with_tcpdump=False):
    env = Environment()
    bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
    conn = TcpConnection(env, bb.a, bb.b)
    magnet = Magnet(bb.a, bb.b) if with_magnet else None
    if magnet:
        magnet.start()
    dump = Tcpdump(env, bb.links[1]) if with_tcpdump else None

    def app():
        yield from conn.send_stream(8948, 64)
        yield from conn.wait_delivered(8948 * 64)

    env.run(until=env.process(app()))
    return env, conn, magnet, dump


class TestMagnet:
    def test_requires_hosts(self):
        with pytest.raises(MeasurementError):
            Magnet()

    def test_path_histogram_counts_instrumentation_points(self):
        _, conn, magnet, _ = run_traffic(with_magnet=True)
        hist = magnet.path_histogram()
        assert hist.get("tcp.tx.segment") == 64
        assert hist.get("tcp.rx.deliver") == 64
        assert "host.rx.dispatch" in hist

    def test_profile_tx_to_deliver(self):
        _, conn, magnet, _ = run_traffic(with_magnet=True)
        prof = magnet.profile("tcp.tx.segment", "tcp.rx.deliver")
        assert prof.samples == 64
        # one-way data-path latency: tens of microseconds
        assert 10 < prof.mean_us < 500
        assert prof.p50_s <= prof.p99_s

    def test_profile_without_matches_raises(self):
        _, conn, magnet, _ = run_traffic(with_magnet=True)
        with pytest.raises(MeasurementError):
            magnet.profile("tcp.tx.segment", "no.such.point")

    def test_disabled_magnet_records_nothing(self):
        _, conn, magnet, _ = run_traffic(with_magnet=True)
        for host in magnet.hosts:
            host.trace.clear()
        magnet.stop()
        assert magnet.path_histogram() == {}

    def test_clean_path_has_no_requeues_or_unmatched(self):
        _, conn, magnet, _ = run_traffic(with_magnet=True)
        prof = magnet.profile("tcp.tx.segment", "tcp.rx.deliver")
        assert prof.requeued == 0
        assert prof.unmatched == 0

    def test_profile_counts_requeued_and_unmatched_exactly(self):
        _, _, magnet, _ = run_traffic(with_magnet=True)
        host = magnet.hosts[0]
        for host in magnet.hosts:
            host.trace.clear()
        buf = host.trace
        buf.post(0.0, "src", 1)
        buf.post(1.0, "src", 2)
        buf.post(2.0, "src", 1)   # subject 1 re-enters: a retransmission
        buf.post(5.0, "dst", 1)   # completes against its FIRST entry
        # subject 2 never reaches dst
        prof = magnet.profile("src", "dst")
        assert prof.samples == 1
        assert prof.requeued == 1
        assert prof.unmatched == 1
        assert prof.mean_s == 5.0  # 5.0 - 0.0, not 5.0 - 2.0

    def test_lost_frames_show_up_as_unmatched(self):
        """A real loss: the dropped original never reaches the delivery
        point (its retransmission is a fresh frame id), and the profile
        reports it instead of silently ignoring it."""
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
        conn = TcpConnection(env, bb.a, bb.b)
        magnet = Magnet(bb.a, bb.b)
        magnet.start()
        inner = bb.links[0].sink
        counter = {"n": 0}

        def dropping_receive(skb):
            if skb.kind == "data" and not skb.meta.get("retransmit"):
                counter["n"] += 1
                if counter["n"] == 20:
                    return  # one-time drop
            inner.receive_frame(skb)

        tap = type("Tap", (), {})()
        tap.receive_frame = dropping_receive
        bb.links[0].connect(tap)

        def app():
            yield from conn.send_stream(8948, 96)
            yield from conn.wait_delivered(8948 * 96)

        env.run(until=env.process(app()))
        assert conn.sender.retransmitted >= 1
        assert magnet.path_histogram().get("tcp.tx.retransmit", 0) >= 1
        # the dropped original entered tcp.tx.segment but its frame id
        # never reached tcp.rx.deliver (the clone delivered instead)
        prof = magnet.profile("tcp.tx.segment", "tcp.rx.deliver")
        assert prof.samples == 95   # 96 sent, one original lost
        assert prof.unmatched == 1  # ...and accounted for, not dropped


class TestTcpdump:
    def test_captures_acks_with_windows(self):
        _, conn, _, dump = run_traffic(with_tcpdump=True)
        acks = dump.acks()
        assert len(acks) == conn.receiver.acks_sent
        windows = dump.advertised_windows()
        assert all(w >= 0 for w in windows)
        # §3.5.1 evidence: advertised windows are MSS-multiples
        mss = conn.receiver.align_mss
        assert all(w % mss == 0 for w in windows)

    def test_data_capture_on_forward_link(self):
        env = Environment()
        bb = BackToBack.create(env, TuningConfig.oversized_windows(9000))
        conn = TcpConnection(env, bb.a, bb.b)
        dump = Tcpdump(env, bb.links[0])

        def app():
            yield from conn.send_stream(8948, 32)
            yield from conn.wait_delivered(8948 * 32)

        env.run(until=env.process(app()))
        data = [r for r in dump.records if r.kind == "data"]
        assert len(data) == 32

    def test_attach_before_connect_rejected(self):
        env = Environment()
        from repro.net.ethernet import EthernetLink
        from repro.units import Gbps
        link = EthernetLink(env, Gbps(10))
        with pytest.raises(ValueError):
            Tcpdump(env, link)


class TestStream:
    def test_pe4600_beats_pe2650_by_half(self):
        r2650 = stream_bench(PE2650)
        r4600 = stream_bench(PE4600)
        assert r4600.copy_gbps == pytest.approx(12.8)
        assert r4600.copy_bps / r2650.copy_bps == pytest.approx(1.5, rel=0.05)

    def test_efficiency_below_one(self):
        r = stream_bench(PE2650)
        assert 0 < r.copy_bps / r.theoretical_bps < 1
