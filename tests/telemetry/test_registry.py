"""Metrics registry: label identity, kinds, snapshots, merge semantics."""

import pytest

from repro.errors import MeasurementError
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    format_metrics_table,
    merge_snapshots,
)


class TestLabelIdentity:
    def test_same_name_and_labels_is_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("nic.tx", nic="eth0")
        b = reg.counter("nic.tx", nic="eth0")
        assert a is b

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("x", host="a", port=1)
        b = reg.counter("x", port=1, host="a")
        assert a is b

    def test_label_values_stringified(self):
        reg = MetricsRegistry()
        assert reg.counter("x", port=1) is reg.counter("x", port="1")

    def test_different_labels_are_distinct_series(self):
        reg = MetricsRegistry()
        a = reg.counter("x", host="a")
        b = reg.counter("x", host="b")
        assert a is not b
        assert len(reg) == 2

    def test_no_labels_is_its_own_series(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is not reg.counter("x", host="a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", host="a")
        with pytest.raises(MeasurementError, match="already registered"):
            reg.gauge("x", host="a")


class TestCounter:
    def test_inc_defaults_to_one(self):
        c = MetricsRegistry().counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5


class TestGauge:
    def test_set_tracks_min_max(self):
        g = MetricsRegistry().gauge("g")
        for v in (5.0, 2.0, 9.0):
            g.set(v)
        assert g.value == 9.0 and g.max == 9.0 and g.min == 2.0

    def test_set_max_only_raises_the_high_water_mark(self):
        g = MetricsRegistry().gauge("g")
        g.set_max(4.0)
        g.set_max(2.0)
        assert g.max == 4.0 and g.value == 4.0


class TestHistogram:
    def test_observe_lands_in_first_fitting_bucket(self):
        h = MetricsRegistry().histogram("h", buckets=(1, 4, 16))
        for v in (1, 3, 16, 100):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]  # last is the overflow bucket
        assert h.count == 4 and h.sum == 120

    def test_default_buckets_power_of_two(self):
        h = MetricsRegistry().histogram("h")
        assert h.buckets == DEFAULT_BUCKETS

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MeasurementError, match="sorted"):
            MetricsRegistry().histogram("h", buckets=(4, 1))


class TestSnapshotAndMerge:
    def _worker(self, base):
        reg = MetricsRegistry()
        reg.counter("pkts", host="a").inc(base)
        g = reg.gauge("depth", host="a")
        g.set(base)
        g.set(base / 2)
        reg.histogram("batch", buckets=(2, 8), host="a").observe(base)
        return reg

    def test_snapshot_is_sorted_and_picklable_shape(self):
        reg = self._worker(4)
        snap = reg.snapshot()
        assert [e["name"] for e in snap] == ["batch", "depth", "pkts"]
        for entry in snap:
            assert set(entry) == {"kind", "name", "labels", "data"}
            assert isinstance(entry["labels"], dict)

    def test_counters_add(self):
        combined = merge_snapshots([self._worker(3).snapshot(),
                                    self._worker(5).snapshot()])
        pkts = [e for e in combined if e["name"] == "pkts"][0]
        assert pkts["data"]["value"] == 8

    def test_gauges_keep_running_extremes_and_last_value(self):
        combined = merge_snapshots([self._worker(10).snapshot(),
                                    self._worker(4).snapshot()])
        depth = [e for e in combined if e["name"] == "depth"][0]
        assert depth["data"]["max"] == 10
        assert depth["data"]["min"] == 2
        assert depth["data"]["value"] == 2  # last worker's last set()

    def test_histograms_add_bucket_wise(self):
        combined = merge_snapshots([self._worker(1).snapshot(),
                                    self._worker(100).snapshot()])
        batch = [e for e in combined if e["name"] == "batch"][0]
        assert batch["data"]["counts"] == [1, 0, 1]
        assert batch["data"]["count"] == 2

    def test_histogram_bucket_mismatch_rejected(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1, 2, 3)).observe(1)
        b_snap = b.snapshot()
        with pytest.raises(MeasurementError, match="buckets"):
            a.merge_snapshot(b_snap)

    def test_merge_creates_missing_series(self):
        target = MetricsRegistry()
        target.merge_snapshot(self._worker(2).snapshot())
        assert len(target) == 3

    def test_merge_is_deterministic_for_fixed_order(self):
        snaps = [self._worker(n).snapshot() for n in (1, 2, 3)]
        assert merge_snapshots(snaps) == merge_snapshots(snaps)


class TestFormatTable:
    def test_renders_all_kinds(self):
        reg = MetricsRegistry()
        reg.counter("pkts", host="a").inc(7)
        reg.gauge("depth", host="a").set(3)
        reg.histogram("batch", host="a").observe(4)
        text = format_metrics_table(reg, title="T")
        assert text.splitlines()[0] == "T"
        assert "pkts" in text and "7" in text
        assert "last=3 max=3" in text
        assert "n=1 mean=4" in text
        assert "host=a" in text

    def test_accepts_a_snapshot_too(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        assert format_metrics_table(reg.snapshot()) == \
            format_metrics_table(reg)

    def test_untouched_gauge_renders_dashes_not_inf(self):
        reg = MetricsRegistry()
        reg.gauge("g")
        assert "inf" not in format_metrics_table(reg)

    def test_empty_registry(self):
        assert "no series" in format_metrics_table(MetricsRegistry())
