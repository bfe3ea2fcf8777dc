"""The metrics registry: counters, gauges and histograms with labels.

Every layer of the simulator — PCI-X bus, NIC, interrupt path, sk_buff
accounting, copy engine, switch, WAN routers, TCP endpoints — registers
its series into one :class:`MetricsRegistry` instead of keeping ad-hoc
per-class tallies that nothing can enumerate.  A registry is cheap to
create and fully picklable through :meth:`MetricsRegistry.snapshot`, so
sweep workers ship their metrics back to the parent process where they
are merged deterministically (see :mod:`repro.telemetry.session`).

Merge semantics are chosen for cross-worker aggregation:

* counters add,
* histograms add bucket-wise (same bucket edges required),
* gauges keep the merge-order last value plus running min/max — the
  max is what high-water-mark gauges (queue depths, cwnd) care about.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import MeasurementError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "merge_snapshots", "diff_snapshots", "format_metrics_table"]

#: Default histogram bucket upper bounds (powers of two: batch sizes,
#: burst counts and queue depths all live comfortably on this grid).
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing sum."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must not be negative)."""
        self.value += amount

    def _data(self) -> Dict[str, Any]:
        return {"value": self.value}

    def _merge(self, data: Dict[str, Any]) -> None:
        self.value += data["value"]


class Gauge:
    """A spot value with running min/max (high-water marks)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "max", "min", "_touched")

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.max = float("-inf")
        self.min = float("inf")
        self._touched = False

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value
        self._touched = True

    def set_max(self, value: float) -> None:
        """Record only if ``value`` exceeds the high-water mark."""
        if value > self.max:
            self.set(value)

    def _data(self) -> Dict[str, Any]:
        return {"value": self.value, "max": self.max, "min": self.min,
                "touched": self._touched}

    def _merge(self, data: Dict[str, Any]) -> None:
        if data.get("touched"):
            self.value = data["value"]
            self._touched = True
        self.max = max(self.max, data["max"])
        self.min = min(self.min, data["min"])


class Histogram:
    """A fixed-bucket distribution (plus exact count and sum)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum")

    def __init__(self, name: str, labels: LabelItems,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise MeasurementError(
                f"histogram {name!r}: buckets must be sorted and non-empty")
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # +1 overflow bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.sum += value
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def _data(self) -> Dict[str, Any]:
        return {"buckets": list(self.buckets), "counts": list(self.counts),
                "count": self.count, "sum": self.sum}

    def _merge(self, data: Dict[str, Any]) -> None:
        if tuple(data["buckets"]) != self.buckets:
            raise MeasurementError(
                f"histogram {self.name!r}: cannot merge different buckets")
        self.counts = [a + b for a, b in zip(self.counts, data["counts"])]
        self.count += data["count"]
        self.sum += data["sum"]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A labelled family of counters, gauges and histograms.

    The same ``(name, labels)`` pair always returns the same metric
    object, so components can look their series up at construction time
    and increment a plain attribute afterwards.  Requesting an existing
    name with a different kind raises — one name, one kind.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[Tuple[str, LabelItems], Any] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(sorted(self._metrics.values(),
                           key=lambda m: (m.name, m.labels)))

    def _get(self, cls, name: str, labels: Dict[str, Any], **kwargs) -> Any:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
            return metric
        if not isinstance(metric, cls):
            raise MeasurementError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- snapshots -------------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """Picklable, deterministic dump: one dict per series, sorted by
        ``(name, labels)``."""
        return [{"kind": m.kind, "name": m.name,
                 "labels": dict(m.labels), "data": m._data()}
                for m in self]

    def merge_snapshot(self, snapshot: List[Dict[str, Any]]) -> None:
        """Fold a snapshot (e.g. from a sweep worker) into this registry.

        Series absent here are created; present ones merge by kind
        (counters add, histograms add bucket-wise, gauges min/max/last).
        """
        for entry in snapshot:
            cls = _KINDS[entry["kind"]]
            kwargs = {}
            if cls is Histogram:
                kwargs["buckets"] = tuple(entry["data"]["buckets"])
            metric = self._get(cls, entry["name"], entry["labels"], **kwargs)
            metric._merge(entry["data"])


def merge_snapshots(snapshots: Sequence[List[Dict[str, Any]]]
                    ) -> List[Dict[str, Any]]:
    """Merge snapshots in the given order into one combined snapshot."""
    combined = MetricsRegistry()
    for snap in snapshots:
        combined.merge_snapshot(snap)
    return combined.snapshot()


def diff_snapshots(old: Sequence[Dict[str, Any]],
                   new: Sequence[Dict[str, Any]]
                   ) -> List[Dict[str, Any]]:
    """The series in ``new`` that are absent from ``old`` or changed.

    Entries compare by ``(name, labels)`` identity and by their
    ``data`` payload, so an untouched series costs one dict lookup and
    one equality test.  This is the delta the live streaming tap ships
    each heartbeat instead of re-sending the whole registry (see
    :mod:`repro.telemetry.stream`); snapshots are already sorted, so
    the returned delta is deterministic too.
    """
    if not old:
        return list(new)
    index = {(e["name"], _label_key(e["labels"])): e["data"] for e in old}
    return [e for e in new
            if index.get((e["name"], _label_key(e["labels"]))) != e["data"]]


def _fmt_value(v: float) -> str:
    if v in (float("inf"), float("-inf")):
        return "-"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def format_metrics_table(source: Any, title: str = "Metrics") -> str:
    """Render a registry or snapshot as a deterministic text table."""
    if isinstance(source, MetricsRegistry):
        snapshot = source.snapshot()
    else:
        snapshot = list(source)
    rows = []
    for entry in snapshot:
        labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
        data = entry["data"]
        if entry["kind"] == "counter":
            value = _fmt_value(data["value"])
        elif entry["kind"] == "gauge":
            value = (f"last={_fmt_value(data['value'])}"
                     f" max={_fmt_value(data['max'])}")
        else:
            count = data["count"]
            mean = data["sum"] / count if count else 0.0
            value = f"n={count} mean={mean:.3g}"
        rows.append((entry["name"], entry["kind"], labels, value))
    if not rows:
        return f"{title}: (no series recorded)"
    widths = [max(len(r[i]) for r in rows + [("metric", "kind", "labels", "value")])
              for i in range(4)]
    lines = [title, "-" * len(title),
             "  ".join(h.ljust(w) for h, w in
                       zip(("metric", "kind", "labels", "value"), widths))]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
