"""Engine self-profiling: where did the simulation's wall-clock go?

An :class:`EngineProfiler` attaches to an :class:`~repro.sim.engine.
Environment` (via ``Environment.enable_profiling``) and records, per
processed event:

* event counts by event type (``Timeout``, ``Event``, ``Process``, and
  ``Call`` for :meth:`~repro.sim.engine.Environment.schedule_call`
  entries, which carry no event),
* callback counts and wall-clock seconds attributed to the *component*
  that ran.  A process callback is named after the process with the
  instance prefix stripped (``conn1.synack`` → ``synack``) so every
  connection's handshake responder aggregates into one row; any other
  callback after its function's qualified name
  (``TcpSender._pump_sent``, ``TenGigAdapter._rx_charge``),
* the queue-depth high-water mark (pending entries at dispatch).

Profiling uses a separate dispatch loop in the engine, so a simulation
that never enables it pays exactly one ``is None`` check per ``run()``
call — not per event.  Wall-clock numbers are *not* deterministic
across runs or workers; they are reported separately from the metrics
table, which must stay bit-identical serial vs parallel.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["EngineProfiler"]


def component_of(name: str) -> str:
    """Aggregation key for a process name.

    Strips the per-object ``#ident`` suffix and the leading instance
    segment: ``conn1.synack`` → ``synack``, ``oc192#17`` → ``oc192``,
    ``pktgen`` → ``pktgen``.
    """
    name = name.split("#", 1)[0]
    head, sep, rest = name.partition(".")
    return rest if sep else head


class EngineProfiler:
    """Mutable per-environment profile; picklable and mergeable."""

    __slots__ = ("event_counts", "callback_counts", "callback_time_s",
                 "heap_hwm", "events_total", "wall_time_s")

    def __init__(self) -> None:
        self.event_counts: Dict[str, int] = {}
        self.callback_counts: Dict[str, int] = {}
        self.callback_time_s: Dict[str, float] = {}
        self.heap_hwm = 0
        self.events_total = 0
        self.wall_time_s = 0.0

    # -- aggregation across environments / workers -------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict dump, safe to pickle across process boundaries."""
        return {
            "event_counts": dict(self.event_counts),
            "callback_counts": dict(self.callback_counts),
            "callback_time_s": dict(self.callback_time_s),
            "heap_hwm": self.heap_hwm,
            "events_total": self.events_total,
            "wall_time_s": self.wall_time_s,
        }

    def merge_snapshot(self, data: Dict[str, Any]) -> None:
        """Fold another profiler's snapshot into this one."""
        for key, n in data["event_counts"].items():
            self.event_counts[key] = self.event_counts.get(key, 0) + n
        for key, n in data["callback_counts"].items():
            self.callback_counts[key] = self.callback_counts.get(key, 0) + n
        for key, t in data["callback_time_s"].items():
            self.callback_time_s[key] = self.callback_time_s.get(key, 0.0) + t
        self.heap_hwm = max(self.heap_hwm, data["heap_hwm"])
        self.events_total += data["events_total"]
        self.wall_time_s += data["wall_time_s"]

    def merge(self, other: "EngineProfiler") -> None:
        """Fold another profiler into this one."""
        self.merge_snapshot(other.snapshot())

    # -- reporting ----------------------------------------------------------
    def render_table(self) -> str:
        """The "where did the time go" text table."""
        lines: List[str] = ["Engine profile", "--------------"]
        lines.append(f"events processed : {self.events_total}")
        lines.append(f"heap high-water  : {self.heap_hwm}")
        lines.append(f"dispatch wall    : {self.wall_time_s * 1e3:.2f} ms")
        if self.event_counts:
            lines.append("event types:")
            for key in sorted(self.event_counts):
                lines.append(f"  {key:<20s} {self.event_counts[key]}")
        if self.callback_counts:
            total_t = sum(self.callback_time_s.values()) or 1.0
            lines.append("wall-clock by component:")
            rows = sorted(self.callback_time_s.items(),
                          key=lambda kv: (-kv[1], kv[0]))
            width = max(24, *(len(key) for key, _ in rows))
            for key, t in rows:
                n = self.callback_counts.get(key, 0)
                lines.append(f"  {key:<{width}s} {t * 1e3:8.2f} ms "
                             f"{100.0 * t / total_t:5.1f}%  "
                             f"({n} callbacks)")
        return "\n".join(lines)
