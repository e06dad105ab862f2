"""Flight recorder: the one per-query record and per-query postmortems.

A query that is admitted, retried across the backend ladder, fanned out
to N shards, and killed by chaos used to leave its evidence scattered
across uncorrelated spans, counters, and log lines.  This module is the
correlation layer:

* :class:`QueryContext` — the request-scoped record minted alongside
  the ``query_id`` at admission (:mod:`repro.service.queue`).  It rides
  the query through the retry ladder collecting a wall-clock-stamped
  **timeline** (admission, attempts, retries, breaker transitions,
  chaos events); the execution lane then fills in what ran, the
  outcome, the resource bill and the evidence.  It is the *only*
  description of a served query: the flight entry is
  :meth:`QueryContext.to_dict`, the capture line the same dict without
  its evidence fields, and the workload ledger aggregates the record.
* :class:`FlightRecorder` — a bounded in-memory ring of finished
  records, queryable over HTTP (``GET /debug/queries`` /
  ``GET /debug/query/<id>``).  When a query errors, breaches its
  deadline, or exceeds its latency objective the recorder freezes a
  self-contained **postmortem** — kept in a separate bounded map so
  ring churn cannot evict the interesting failures, and optionally
  dumped as a JSON file for offline analysis (the CI chaos job uploads
  these as artifacts).

The recorder is observation-only: it copies plain data out of the
query path and never feeds anything back, so join results are
bit-identical with the recorder on or off (pinned by tests).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .ledger import QueryLedger
from .rotation import environment_fingerprint

__all__ = ["CAPTURE_SCHEMA", "QueryContext", "FlightRecorder"]

#: Bump when the record layout changes incompatibly; readers refuse
#: records from a future schema instead of misinterpreting them.
CAPTURE_SCHEMA = 1

#: Statuses a finished query can record; anything but "ok" is a
#: postmortem trigger.
TERMINAL_STATUSES = ("ok", "deadline_exceeded", "error", "internal_error")


@dataclass
class QueryContext:
    """The one record of a served query: identity, what ran, evidence,
    outcome, bill.

    Created where the ``query_id`` is minted and mutated only from the
    service's single execution lane, so no locking is needed until the
    finished record is handed to its consumers.
    """

    query_id: int
    kind: str
    wall: object = field(default=time.time, compare=False, repr=False)
    created_at: "float | None" = None
    #: *replayable* parameters: a join's resolved algorithm, k and
    #: signature bits, not ``"auto"``.
    params: dict = field(default_factory=dict)
    #: algorithm, k, θ_R/θ_S, sizes, signature bits, predicted seconds;
    #: ``requested`` marks a named algorithm.
    plan: "dict | None" = None
    timeline: list = field(default_factory=list)
    status: "str | None" = None
    seconds: float = 0.0
    attempts: int = 0
    error: "dict | None" = None
    #: the resource bill over the lane's registry window.
    ledger: "QueryLedger | None" = None
    fingerprint: "str | None" = None
    label: "str | None" = None
    digest: dict = field(default_factory=dict)
    drift: "dict | None" = None
    registry_delta: "dict | None" = None
    spans: list = field(default_factory=list)

    def __post_init__(self):
        if self.created_at is None:
            self.created_at = self.wall()

    def event(self, kind: str, **fields) -> dict:
        """Append one wall-stamped event to the timeline."""
        record = {"event": kind, "at": self.wall()}
        record.update(fields)
        self.timeline.append(record)
        return record

    def finish(self, status: str, seconds: float,
               error: "BaseException | None" = None) -> None:
        """Record the outcome; ``error`` is kept as plain type + detail."""
        self.status = status
        self.seconds = seconds
        self.error = None if error is None else {
            "type": type(error).__name__, "detail": str(error),
        }

    def to_dict(self, evidence: bool = True) -> dict:
        """Plain-data copy: the flight entry, or — without ``evidence``
        (timeline, plan, drift, registry delta, spans, error: what a
        replay neither needs nor can reproduce) — the capture line."""
        out = {
            "schema": CAPTURE_SCHEMA,
            "query_id": self.query_id,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "label": self.label,
            "params": dict(self.params),
            "status": self.status,
            "seconds": self.seconds,
            "attempts": self.attempts,
            "digest": dict(self.digest),
            "ledger": (
                self.ledger.to_dict() if self.ledger is not None else None
            ),
        }
        if evidence:
            out.update(
                created_at=self.created_at,
                timeline=[dict(event) for event in self.timeline],
                plan=dict(self.plan) if self.plan is not None else None,
                drift=dict(self.drift) if self.drift is not None else None,
                registry_delta=(
                    dict(self.registry_delta)
                    if self.registry_delta is not None else None
                ),
                spans=[dict(span) for span in self.spans],
                error=dict(self.error) if self.error is not None else None,
            )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "QueryContext":
        """Rebuild from :meth:`to_dict` output, with or without evidence
        (so a schema-1 capture line loads)."""
        if not isinstance(data, dict):
            raise ConfigurationError("workload record must be a JSON object")
        schema = data.get("schema")
        if not isinstance(schema, int) or schema > CAPTURE_SCHEMA:
            raise ConfigurationError(
                f"workload record schema {schema!r} not supported "
                f"(this reader understands <= {CAPTURE_SCHEMA})"
            )
        try:
            ledger = data.get("ledger")
            return cls(
                query_id=int(data["query_id"]),
                kind=str(data["kind"]),
                created_at=float(data.get("created_at", 0.0)),
                params=dict(data.get("params", {})),
                plan=data.get("plan"),
                timeline=list(data.get("timeline", [])),
                status=str(data["status"]),
                seconds=float(data.get("seconds", 0.0)),
                attempts=int(data.get("attempts", 1)),
                error=data.get("error"),
                ledger=(
                    QueryLedger.from_dict(ledger)
                    if ledger is not None else None
                ),
                fingerprint=str(data["fingerprint"]),
                label=str(data.get("label", data["fingerprint"])),
                digest=dict(data.get("digest", {})),
                drift=data.get("drift"),
                registry_delta=data.get("registry_delta"),
                spans=list(data.get("spans", [])),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed workload record: {error}"
            ) from error


class FlightRecorder:
    """Bounded ring of finished queries plus frozen postmortems.

    ``capacity`` bounds both the ring and the postmortem map; memory use
    is therefore O(capacity × per-query evidence) regardless of uptime.
    ``postmortem_dir`` additionally dumps each postmortem as
    ``postmortem-q<id>.json`` (self-contained: includes the environment
    fingerprint).  The dump directory is budgeted like a rotated JSONL
    history: when the live dumps exceed ``postmortem_max_files`` or
    ``postmortem_max_bytes``, the oldest (lowest query id) are archived
    to ``<name>.stale`` first, and the stale pool itself is bounded by
    deleting its oldest members — so a failure storm cannot grow the
    directory without limit.  Reads come from HTTP handler threads
    while writes come from the execution lane, hence the lock.
    """

    def __init__(self, capacity: int = 128, postmortem_dir: str | None = None,
                 wall=None,
                 postmortem_max_files: int = 64,
                 postmortem_max_bytes: int = 16 * 1024 * 1024):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if postmortem_max_files <= 0:
            raise ValueError(
                f"postmortem_max_files must be positive, "
                f"got {postmortem_max_files}"
            )
        self.capacity = capacity
        self.postmortem_dir = postmortem_dir
        self.postmortem_max_files = postmortem_max_files
        self.postmortem_max_bytes = postmortem_max_bytes
        self._wall = wall if wall is not None else time.time
        self._lock = threading.Lock()
        self._entries: "OrderedDict[int, dict]" = OrderedDict()
        self._postmortems: "OrderedDict[int, dict]" = OrderedDict()

    def record(self, record: QueryContext,
               objective: float | None = None) -> dict:
        """Capture one finished query; freeze a postmortem if warranted.

        ``objective`` is the query kind's latency objective in seconds
        (from the SLO tracker); exceeding it makes an otherwise-ok query
        a slow-query postmortem.  Returns the recorded entry.
        """
        entry = record.to_dict()
        entry["recorded_at"] = self._wall()

        reason = None
        if record.status != "ok":
            reason = record.status
        elif objective is not None and record.seconds > objective:
            reason = "latency_objective_exceeded"

        with self._lock:
            self._entries[record.query_id] = entry
            self._entries.move_to_end(record.query_id)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            if reason is not None:
                postmortem = dict(entry)
                postmortem["postmortem_reason"] = reason
                postmortem["objective_seconds"] = objective
                postmortem["environment"] = environment_fingerprint()
                self._postmortems[record.query_id] = postmortem
                while len(self._postmortems) > self.capacity:
                    self._postmortems.popitem(last=False)
                if self.postmortem_dir is not None:
                    self._dump(postmortem)
        return entry

    def _dump(self, postmortem: dict) -> None:
        os.makedirs(self.postmortem_dir, exist_ok=True)
        path = os.path.join(
            self.postmortem_dir,
            f"postmortem-q{postmortem['query_id']}.json",
        )
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(postmortem, handle, sort_keys=True, indent=2)
        os.replace(tmp, path)
        self._enforce_dump_budget()

    @staticmethod
    def _dump_query_id(name: str) -> int:
        try:
            return int(name[len("postmortem-q"):].split(".", 1)[0])
        except ValueError:
            return -1

    def _enforce_dump_budget(self) -> None:
        """Archive oldest-first until the dump directory fits its caps.

        Mirrors ``rotate_jsonl`` semantics: evicted-but-recent history
        moves aside (``.stale``) rather than vanishing, and the stale
        pool is itself bounded so the directory has a hard ceiling of
        ``2 × postmortem_max_files`` files.
        """
        live = []
        stale = []
        for name in os.listdir(self.postmortem_dir):
            if not name.startswith("postmortem-q"):
                continue
            if name.endswith(".json"):
                live.append(name)
            elif name.endswith(".json.stale"):
                stale.append(name)
        live.sort(key=self._dump_query_id)
        sizes = {}
        for name in live:
            try:
                sizes[name] = os.path.getsize(
                    os.path.join(self.postmortem_dir, name)
                )
            except OSError:
                sizes[name] = 0
        total = sum(sizes.values())
        while live and (
            len(live) > self.postmortem_max_files
            or total > self.postmortem_max_bytes
        ):
            oldest = live.pop(0)
            path = os.path.join(self.postmortem_dir, oldest)
            total -= sizes[oldest]
            os.replace(path, path + ".stale")
            stale.append(oldest + ".stale")
        stale.sort(key=self._dump_query_id)
        while len(stale) > self.postmortem_max_files:
            try:
                os.remove(os.path.join(self.postmortem_dir, stale.pop(0)))
            except OSError:
                pass

    def entries(self) -> "list[dict]":
        """Newest-first one-line summaries for ``GET /debug/queries``."""
        with self._lock:
            rows = list(self._entries.values())
            frozen = set(self._postmortems)
        rows.reverse()
        return [
            {
                "query_id": entry["query_id"],
                "kind": entry["kind"],
                "status": entry["status"],
                "seconds": entry["seconds"],
                "attempts": entry["attempts"],
                "postmortem": entry["query_id"] in frozen,
            }
            for entry in rows
        ]

    def get(self, query_id: int) -> dict | None:
        """Full evidence for one query; postmortems outlive the ring."""
        with self._lock:
            if query_id in self._postmortems:
                return dict(self._postmortems[query_id])
            entry = self._entries.get(query_id)
            return dict(entry) if entry is not None else None

    def postmortems(self) -> "list[int]":
        """Query ids with frozen postmortems (newest last)."""
        with self._lock:
            return list(self._postmortems)
