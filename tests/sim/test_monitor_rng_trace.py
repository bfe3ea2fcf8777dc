"""Tests for monitors, RNG streams and the trace buffer."""

import pytest

from repro.sim import (
    CounterMonitor,
    RngStreams,
    TraceBuffer,
)


class TestCounterMonitor:
    def test_add_counts_events_and_total(self):
        c = CounterMonitor("link.bytes")
        assert (c.events, c.total) == (0, 0.0)
        c.add()
        c.add(9018)
        assert (c.name, c.events, c.total) == ("link.bytes", 2, 9019.0)


class TestRngStreams:
    def test_same_name_same_stream_across_instances(self):
        a = RngStreams(seed=7).get("loss").random(5)
        b = RngStreams(seed=7).get("loss").random(5)
        assert (a == b).all()

    def test_different_names_independent(self):
        s = RngStreams(seed=7)
        a = s.get("loss").random(5)
        b = s.get("jitter").random(5)
        assert not (a == b).all()

    def test_creation_order_does_not_matter(self):
        s1 = RngStreams(seed=3)
        s1.get("x")
        a = s1.get("y").random(3)
        s2 = RngStreams(seed=3)
        b = s2.get("y").random(3)
        assert (a == b).all()

    def test_reset(self):
        s = RngStreams(seed=1)
        a = s.get("x").random(3)
        s.reset()
        b = s.get("x").random(3)
        assert (a == b).all()


class TestTraceBuffer:
    def test_disabled_by_default(self):
        buf = TraceBuffer()
        buf.post(0.0, "a.b", 1)
        assert len(buf) == 0

    def test_enabled_records(self):
        buf = TraceBuffer(enabled=True)
        buf.post(1.0, "tcp.tx", 42, seq=100)
        assert len(buf) == 1
        ev = next(iter(buf))
        assert ev.point == "tcp.tx" and ev.subject == 42
        assert ev.detail["seq"] == 100

    def test_select_by_point_and_prefix(self):
        buf = TraceBuffer(enabled=True)
        buf.post(0.0, "tcp.tx.segment", 1)
        buf.post(0.0, "tcp.rx.deliver", 1)
        buf.post(0.0, "tcp.rx.ack", 2)
        assert len(buf.select(point="tcp.rx.*")) == 2
        assert len(buf.select(point="tcp.tx.segment")) == 1
        assert len(buf.select(subject=1)) == 2

    def test_ring_discards_oldest(self):
        buf = TraceBuffer(max_events=10, enabled=True)
        for i in range(25):
            buf.post(float(i), "p", i)
        assert len(buf) <= 10
        assert buf.dropped > 0
        # newest events survive
        assert any(e.subject == 24 for e in buf)

    def test_ring_drop_count_is_exact(self):
        buf = TraceBuffer(max_events=10, enabled=True)
        for i in range(25):
            buf.post(float(i), "p", i)
        assert len(buf) == 10
        assert buf.dropped == 15  # exactly the evicted events
        # survivors are precisely the newest ten, oldest-first
        assert [e.subject for e in buf] == list(range(15, 25))

    def test_clear_resets_drop_count(self):
        buf = TraceBuffer(max_events=2, enabled=True)
        for i in range(5):
            buf.post(0.0, "p", i)
        buf.clear()
        assert len(buf) == 0 and buf.dropped == 0

    def test_points_histogram(self):
        buf = TraceBuffer(enabled=True)
        for _ in range(3):
            buf.post(0.0, "a", None)
        buf.post(0.0, "b", None)
        assert buf.points() == {"a": 3, "b": 1}

    def test_invalid_max_events(self):
        with pytest.raises(ValueError):
            TraceBuffer(max_events=0)
