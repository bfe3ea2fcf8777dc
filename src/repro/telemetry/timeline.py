"""tcptrace-style per-connection timelines.

``tcptrace`` turns a packet capture into time-sequence graphs: data
segments, ACKs and retransmits against time, with the congestion window
alongside.  :func:`build_timelines` produces the same series from the
``tcp.*`` instrumentation points, keyed by connection label, ready for
plotting (each series is a list of ``[time, ...]`` rows).

:class:`TimelineFolder` is the incremental core: it folds one event at
a time, so a *streaming* consumer (the observer server's replay
endpoint, a live dashboard) can keep timelines current as events
arrive instead of re-scanning the whole run per refresh.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Sequence, Union

from repro.telemetry.session import EventTuple

__all__ = ["TimelineFolder", "build_timelines", "write_timeline"]

PathLike = Union[str, pathlib.Path]

#: point -> (series name, detail fields recorded after the timestamp)
_SERIES = {
    "tcp.tx.segment": ("segments", ("seq", "len")),
    "tcp.tx.retransmit": ("retransmits", ("seq", "len")),
    "tcp.rx.ack": ("acks", ("ack",)),
    "tcp.rx.deliver": ("deliveries", ("nbytes",)),
    "tcp.cwnd.update": ("cwnd", ("cwnd", "ssthresh")),
}


def _conn_label(track: str, subject: Any, detail: Dict[str, Any]) -> str:
    conn = detail.get("conn")
    if conn is None:
        conn = subject if isinstance(subject, str) else track
    return str(conn)


class TimelineFolder:
    """Folds trace events into per-connection series, one at a time.

    Feed it event tuples (:meth:`add`) in any order; :meth:`document` sorts
    each series by time and returns the same ``repro-timeline-v1``
    payload as :func:`build_timelines`.
    """

    def __init__(self):
        self.connections: Dict[str, Dict[str, List[List[Any]]]] = {}
        self.folded = 0

    def add(self, track: str, time: float, point: str, subject: Any,
            detail: Dict[str, Any]) -> bool:
        """Fold one event; returns whether it contributed to a series."""
        series = _SERIES.get(point)
        if series is None:
            return False
        name, fields = series
        conn = _conn_label(track, subject, detail)
        entry = self.connections.setdefault(conn, {
            "segments": [], "retransmits": [], "acks": [],
            "deliveries": [], "cwnd": [],
        })
        entry[name].append([time] + [detail.get(f) for f in fields])
        self.folded += 1
        return True

    def document(self) -> Dict[str, Any]:
        """The plottable ``repro-timeline-v1`` document (sorted rows)."""
        for entry in self.connections.values():
            for rows in entry.values():
                rows.sort(key=lambda row: row[0])
        return {"format": "repro-timeline-v1",
                "connections": self.connections}


def build_timelines(events: Sequence[EventTuple]) -> Dict[str, Any]:
    """Group ``tcp.*`` events into per-connection plottable series."""
    folder = TimelineFolder()
    for track, time, point, subject, detail in events:
        folder.add(track, time, point, subject, detail)
    return folder.document()


def write_timeline(events: Sequence[EventTuple], path: PathLike) -> int:
    """Write per-connection timelines as JSON; returns the connection
    count."""
    doc = build_timelines(events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return len(doc["connections"])
