"""Bench-side span recorder for the traced pass.

Spans are recorded around calls from ``bench/`` into the program's public
functions; nothing is added to the program.  They stay in memory until the
workload ends and are then written as one JSON object per line:

    {"id": 7, "parent": 3, "name": "storage.relation_store.bulk_load",
     "start": 1.2034, "end": 2.1100, "self": 0.9066, "workload": "case_study",
     "repeat": 0, "source": "bench"}

``source`` is ``"bench"`` for intervals this recorder clocked itself and
``"program"`` for durations copied from the program's own ``JoinMetrics``
(laid end to end from their parent's start, since the program reports
lengths, not instants).  ``self`` is the span's duration minus the part its
children cover.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Recorder:
    def __init__(self, workload: str, clock=time.perf_counter):
        self.workload = workload
        self.spans: list[dict] = []
        self._clock = clock
        self._origin = clock()
        self._stack: list[dict] = []

    def _open(self, name: str, repeat, source: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        if repeat is None and parent is not None:
            repeat = parent["repeat"]
        span = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "workload": self.workload,
            "repeat": repeat,
            "source": source,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, repeat=None):
        """Clock one call into a layer; nests under the open span."""
        span = self._open(name, repeat, "bench")
        self._stack.append(span)
        span["start"] = self._clock() - self._origin
        try:
            yield span
        finally:
            span["end"] = self._clock() - self._origin
            self._stack.pop()

    def reported(self, parent: dict, phases) -> None:
        """Attach program-reported ``(name, seconds)`` phases as children
        of ``parent``, laid end to end from its start."""
        cursor = parent["start"]
        self._stack.append(parent)
        try:
            for name, seconds in phases:
                child = self._open(name, None, "program")
                child["start"] = cursor
                cursor += seconds
                child["end"] = cursor
        finally:
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name`` (0.0 if none)."""
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the time its direct children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own

    def self_median(self, name: str) -> float:
        own = self.self_times()
        values = [own[s["id"]] for s in self.spans if s["name"] == name]
        return statistics.median(values) if values else 0.0

    def write_jsonl(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w") as handle:
            for span in self.spans:
                record = dict(span, self=own[span["id"]])
                handle.write(json.dumps(record, sort_keys=True) + "\n")
