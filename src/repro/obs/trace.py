"""Span tracing with explicit clocks and cross-process stitching.

A :class:`Span` is one named, timed unit of work with free-form
attributes; spans nest, forming a tree per traced operation.  A
:class:`Tracer` owns the span tree and the clocks:

* ``clock`` (default :func:`time.perf_counter`) measures durations;
* ``wall`` (default :func:`time.time`) anchors the trace on the epoch
  so spans from different processes land on one comparable timeline.

Both clocks are injected, so tests drive deterministic traces and the
whole layer is simulation-friendly.

Cross-process propagation: a worker builds its own tracer, runs its
shard, and ships ``tracer.export()`` — a list of plain dicts — back in
its (picklable) result.  The parent calls :meth:`Tracer.adopt` to
re-key the records and graft them under its current span, so a k-way
parallel join yields one coherent tree with true per-shard wall times.

The *ambient* tracer (:func:`current_tracer` / :func:`use_tracer`)
is how deep layers — the buffer pool, the WAL — attach spans without
threading a tracer argument through every call site.  It defaults to
:data:`NULL_TRACER`, whose spans are shared no-op objects, so
un-traced runs pay almost nothing.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
]


class Span:
    """One timed, attributed unit of work in a span tree."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end",
                 "attrs", "children")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start: float,
        end: float | None = None,
        attrs: dict | None = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.attrs: dict = attrs if attrs is not None else {}
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while the span is open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_record(self) -> dict:
        """Flat, JSON-able representation (one JSONL line)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"duration={self.duration:.6f})")


#: Process-wide span id allocator.  Per-tracer counters would restart at
#: 1 for every query, so a JSONL file accumulating one tree per query
#: (the service's trace log) would violate its own unique-id schema;
#: drawing every id from one counter keeps any in-process mix of trees
#: collision-free.  Ids from *other* processes are re-keyed on adoption.
_span_ids = itertools.count(1)


class Tracer:
    """Builds span trees; all time comes from the injected clocks."""

    enabled = True

    def __init__(self, clock=None, wall=None, tags: dict | None = None):
        self._clock = clock if clock is not None else time.perf_counter
        wall_clock = wall if wall is not None else time.time
        self._clock0 = self._clock()
        self._wall0 = wall_clock()
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        #: Request-scoped correlation attributes (e.g. ``query_id``)
        #: stamped onto every root span this tracer opens or adopts, so
        #: spans stay attributable after trees from many queries are
        #: mixed in one JSONL file.
        self.tags: dict = dict(tags) if tags else {}

    # ------------------------------------------------------------------

    def _now(self) -> float:
        """Epoch-anchored timestamp: wall origin + monotonic elapsed."""
        return self._wall0 + (self._clock() - self._clock0)

    @property
    def current(self) -> Span | None:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def start(self, name: str, **attrs) -> Span:
        """Open a span under the current one (or as a new root)."""
        parent = self.current
        span = Span(
            name,
            next(_span_ids),
            parent.span_id if parent is not None else None,
            self._now(),
            attrs=dict(attrs) if attrs else {},
        )
        if parent is not None:
            parent.children.append(span)
        else:
            if self.tags:
                # Tags under explicit attrs: a span naming its own
                # query_id wins over the tracer-wide default.
                span.attrs = {**self.tags, **span.attrs}
            self.roots.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> Span:
        """Close ``span`` (and any forgotten spans opened inside it)."""
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = self._now()
            if top is span:
                break
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        """``with tracer.span("phase", k=8) as s: ...`` — the main API."""
        span = self.start(name, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    # ------------------------------------------------------------------
    # Serialization / stitching
    # ------------------------------------------------------------------

    def export(self) -> list[dict]:
        """Every span of every root tree as flat records, depth-first.

        Open spans are exported with ``end = None``; the records pickle
        and JSON-serialize cleanly for cross-process shipping.
        """
        records = []
        for root in self.roots:
            for span in root.walk():
                records.append(span.to_record())
        return records

    def child(self, tags: dict) -> "Tracer":
        """A fresh tracer sharing this tracer's clocks, tagged with
        ``tags``.

        In-process workers (the serial and thread parallel backends) use
        this so their span trees stay on the parent's timeline — and stay
        deterministic when the parent's clocks are injected fakes.
        """
        return Tracer(clock=self._clock, wall=lambda: self._now(),
                      tags=tags)

    def adopt(self, records: list[dict], parent: Span | None = None) -> list[Span]:
        """Graft foreign span records into this tracer's tree.

        Records (from another tracer's :meth:`export`, typically another
        process) are re-keyed with fresh span ids; their internal
        parent/child links are preserved regardless of record order, and
        records whose parent is not in the batch attach under ``parent``
        (default: the current span, or as new roots).  Returns the
        adopted top-level spans.

        Malformed records — missing keys, non-string names, duplicate
        span ids within the batch — raise ``ValueError`` before anything
        is grafted, so a bad batch never leaves a half-adopted tree.
        """
        if parent is None:
            parent = self.current
        by_old_id: dict[int, Span] = {}
        adopted: list[tuple[dict, Span]] = []
        for index, record in enumerate(records):
            try:
                name = record["name"]
                old_id = record["span_id"]
                start = record["start"]
                end = record["end"]
            except (KeyError, TypeError) as error:
                raise ValueError(
                    f"cannot adopt record {index}: missing key {error}"
                ) from None
            if not isinstance(name, str) or not name:
                raise ValueError(f"cannot adopt record {index}: empty name")
            if old_id in by_old_id:
                raise ValueError(
                    f"cannot adopt records: duplicate span_id {old_id}"
                )
            span = Span(
                name,
                next(_span_ids),
                None,
                start,
                end,
                dict(record.get("attrs") or {}),
            )
            by_old_id[old_id] = span
            adopted.append((record, span))
        # Second pass: link after every span exists, so a child record
        # appearing before its parent (out-of-order export) still nests.
        tops: list[Span] = []
        for record, span in adopted:
            old_parent = record.get("parent_id")
            adoptive = by_old_id.get(old_parent) if old_parent is not None else None
            if adoptive is not None:
                span.parent_id = adoptive.span_id
                adoptive.children.append(span)
            else:
                tops.append(span)
        for span in tops:
            if parent is not None:
                span.parent_id = parent.span_id
                parent.children.append(span)
            else:
                if self.tags:
                    span.attrs = {**self.tags, **span.attrs}
                self.roots.append(span)
        return tops


class _NullSpan:
    """Shared do-nothing span; every no-op trace call returns it."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    start = 0.0
    end = 0.0
    duration = 0.0
    attrs: dict = {}
    children: list = []

    def set(self, **attrs) -> "_NullSpan":
        return self

    def walk(self):
        return iter(())

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every operation is a cheap no-op."""

    enabled = False
    roots: list = []

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def start(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def finish(self, span) -> _NullSpan:
        return _NULL_SPAN

    @property
    def current(self) -> None:
        return None

    def export(self) -> list[dict]:
        return []

    def adopt(self, records, parent=None) -> list:
        return []


NULL_TRACER = NullTracer()

_ambient: "Tracer | NullTracer" = NULL_TRACER


def current_tracer() -> "Tracer | NullTracer":
    """The ambient tracer deep layers report to (default: no-op)."""
    return _ambient


@contextmanager
def use_tracer(tracer: "Tracer | NullTracer"):
    """Install ``tracer`` as the ambient tracer for the dynamic extent."""
    global _ambient
    previous = _ambient
    _ambient = tracer
    try:
        yield tracer
    finally:
        _ambient = previous
