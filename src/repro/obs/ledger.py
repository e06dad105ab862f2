"""Per-query resource attribution: ledgers, fingerprints, heavy hitters.

The registry (PR 3) answers "what has the *process* spent"; the flight
recorder (PR 8) answers "what happened to *this* query".  This module
closes the gap between them — "which *queries* are spending the
process's resources" — with three pieces:

* :class:`QueryLedger` — one query's resource bill, computed by
  snapshotting the metrics registry around the service's execution lane
  and keeping the counter movement (:meth:`MetricsRegistry.delta`).
  Because every query executes on the single lane — and because process
  workers and dist shards fold their registry deltas back in *before*
  the lane call returns — the lane-level diff attributes storage and
  engine counters to the query exactly, under every backend and shard
  count.
* :func:`query_fingerprint` — a stable workload key over what a query
  *is* (kind, relations, sizes, densities, resolved algorithm/k,
  signature bits, shard layout) rather than which request happened to
  carry it, so a mixed workload collapses into its recurring shapes.
* :class:`WorkloadLedger` — the per-fingerprint aggregation: totals,
  top-K heavy hitters (by wall, pages, comparisons), and
  :meth:`WorkloadLedger.reconcile`, which checks that the sum of
  per-query ledgers equals the global registry movement since the
  service started.  For the integer resource counters (pages, WAL
  bytes, buffer hits/misses, comparisons, spill bytes) the check is
  *exact* — any unattributed movement means a code path is doing
  storage work outside the lane, which is a bug worth an alert.

Everything here is observation-only plain data: ledgers never feed back
into execution, so results are bit-identical with the ledger on or off
(pinned by tests).
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from dataclasses import dataclass, field

from ..errors import ConfigurationError

__all__ = [
    "RESOURCE_COUNTERS",
    "Fingerprint",
    "LedgerWindow",
    "QueryLedger",
    "WorkloadLedger",
    "normalize_workload_name",
    "query_fingerprint",
]

#: The ledger's named resource fields and the registry counters they
#: read.  All integer-valued and only ever incremented from within the
#: service's execution-lane window (worker/shard deltas merge before the
#: lane call returns), which is what makes reconciliation exact — float
#: counters (phase seconds) are excluded because telescoping float sums
#: are not associative bit-for-bit.
RESOURCE_COUNTERS = {
    "pages_read": "setjoin_page_reads_total",
    "pages_written": "setjoin_page_writes_total",
    "buffer_hits": "setjoin_buffer_hits_total",
    "buffer_misses": "setjoin_buffer_misses_total",
    "wal_bytes": "setjoin_wal_bytes_total",
    "wal_fsyncs": "setjoin_wal_fsyncs_total",
    "wal_commits": "setjoin_wal_commits_total",
    "spill_bytes": "setjoin_spill_bytes_total",
    "signature_comparisons": "setjoin_signature_comparisons_total",
    "replicated_signatures": "setjoin_replicated_signatures_total",
    "candidates": "setjoin_candidates_total",
    "result_pairs": "setjoin_result_pairs_total",
}

#: ``top(by=...)`` orderings: report key -> ledger expression.
_ORDERINGS = ("wall", "cpu", "pages", "comparisons", "queries")

_DIGITS = re.compile(r"\d+")


def normalize_workload_name(name: str) -> str:
    """Collapse generated relation names into one workload shape.

    Churn traffic creates ``scratch_1``, ``scratch_2``, ... — distinct
    relations, one workload.  Digit runs become ``*`` so they share a
    fingerprint; names without digits pass through unchanged.
    """
    return _DIGITS.sub("*", name)


@dataclass(frozen=True)
class Fingerprint:
    """A stable workload key: short hash plus its readable description.

    ``key`` is what aggregation buckets on; ``label`` is what a human
    reads in the heavy-hitter report; ``detail`` is the normalized
    field dict the key was derived from.
    """

    key: str
    label: str
    detail: dict

    def to_dict(self) -> dict:
        return {"key": self.key, "label": self.label, "detail": dict(self.detail)}


def query_fingerprint(kind: str, detail: dict) -> Fingerprint:
    """Derive the stable key for one normalized query description.

    ``detail`` must be plain JSON-serializable data; the key is a short
    SHA-256 over the canonical (sorted-key) JSON encoding, so the same
    workload shape hashes identically across processes and machines.
    """
    normalized = {"kind": kind}
    for name, value in detail.items():
        if value is None:
            continue
        if isinstance(value, float):
            value = round(value, 3)
        normalized[name] = value
    canonical = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(canonical.encode()).hexdigest()[:12]
    parts = [kind]
    for name in sorted(normalized):
        if name == "kind":
            continue
        parts.append(f"{name}={normalized[name]}")
    return Fingerprint(key=key, label=" ".join(parts), detail=normalized)


@dataclass(slots=True)
class QueryLedger:
    """One query's resource bill: counter movement plus wall/CPU time.

    Built from a :meth:`MetricsRegistry.delta` taken around the lane
    execution of a single query.  Keeps *every* counter that moved (the
    full evidence), and exposes the named integer resources through
    :attr:`resources`.  ``cpu_seconds`` is ``time.process_time`` across
    the lane window — process-wide, so concurrent HTTP handler threads
    can inflate it slightly; wall vs CPU is still the signal that tells
    an I/O-bound query from a compute-bound one.
    """

    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    counters: "dict[str, int | float]" = field(default_factory=dict)

    @classmethod
    def from_delta(cls, delta: dict, wall_seconds: float,
                   cpu_seconds: float) -> "QueryLedger":
        """Keep the counter movement out of one registry delta.

        Gauges are last-write-wins (not attributable) and histogram
        buckets duplicate the latency histogramming the service already
        does, so only ``kind == "counter"`` entries survive.
        """
        counters = {
            name: entry["value"]
            for name, entry in delta.items()
            if entry.get("kind") == "counter"
        }
        return cls(wall_seconds=wall_seconds, cpu_seconds=cpu_seconds,
                   counters=counters)

    @property
    def resources(self) -> dict:
        """The named integer resource fields (zero-filled)."""
        return {
            field: self.counters.get(metric, 0)
            for field, metric in RESOURCE_COUNTERS.items()
        }

    def get(self, metric: str) -> "int | float":
        return self.counters.get(metric, 0)

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "resources": self.resources,
            "counters": dict(self.counters),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QueryLedger":
        """Rebuild from :meth:`to_dict` output (capture replay path)."""
        counters = data.get("counters")
        if counters is None:
            # Older/slimmer records may carry only the named resources.
            counters = {
                RESOURCE_COUNTERS[field]: value
                for field, value in data.get("resources", {}).items()
                if field in RESOURCE_COUNTERS
            }
        return cls(
            wall_seconds=float(data.get("wall_seconds", 0.0)),
            cpu_seconds=float(data.get("cpu_seconds", 0.0)),
            counters=dict(counters),
        )


class LedgerWindow:
    """One snapshot → run → delta → bill window over a registry.

    Construction baselines ``registry`` and both clocks; :meth:`close`
    returns the bill and keeps the raw movement as :attr:`delta`.  The
    service lane, capture replay and the ablation executor all bill
    through this; a bill is exact only while nothing else moves the
    registry.
    """

    def __init__(self, registry, clock=time.perf_counter,
                 cpu_clock=time.process_time):
        self._registry = registry
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._baseline = registry.snapshot()
        self._wall_started = clock()
        self._cpu_started = cpu_clock()
        self.delta: dict = {}

    def close(self) -> QueryLedger:
        self.delta = self._registry.delta(self._baseline)
        return QueryLedger.from_delta(
            self.delta,
            wall_seconds=self._clock() - self._wall_started,
            cpu_seconds=self._cpu_clock() - self._cpu_started,
        )

    def condensed(self) -> dict:
        """The closed window's movement as plain values (counters,
        gauges) and ``{count, sum}`` pairs (histograms) — the flight
        entry's ``registry_delta``."""
        return {
            name: (
                {"count": entry["count"], "sum": entry["sum"]}
                if entry["kind"] == "histogram" else entry["value"]
            )
            for name, entry in self.delta.items()
        }


class _Group:
    """Per-fingerprint running totals (internal to WorkloadLedger)."""

    __slots__ = (
        "fingerprint", "label", "kind", "queries", "ok", "failed",
        "wall_seconds", "cpu_seconds", "resources", "last_query_id",
    )

    def __init__(self, fingerprint: str, label: str, kind: str):
        self.fingerprint = fingerprint
        self.label = label
        self.kind = kind
        self.queries = 0
        self.ok = 0
        self.failed = 0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.resources = {field: 0 for field in RESOURCE_COUNTERS}
        self.last_query_id: "int | None" = None

    def add(self, ledger: QueryLedger, status: str,
            query_id: "int | None") -> None:
        self.queries += 1
        if status == "ok":
            self.ok += 1
        else:
            self.failed += 1
        self.wall_seconds += ledger.wall_seconds
        self.cpu_seconds += ledger.cpu_seconds
        for field, value in ledger.resources.items():
            self.resources[field] += value
        if query_id is not None:
            self.last_query_id = query_id

    def sort_value(self, by: str) -> float:
        if by == "wall":
            return self.wall_seconds
        if by == "cpu":
            return self.cpu_seconds
        if by == "pages":
            return (self.resources["pages_read"]
                    + self.resources["pages_written"])
        if by == "comparisons":
            return self.resources["signature_comparisons"]
        return self.queries

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "label": self.label,
            "kind": self.kind,
            "queries": self.queries,
            "ok": self.ok,
            "failed": self.failed,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "resources": dict(self.resources),
            "last_query_id": self.last_query_id,
        }


class WorkloadLedger:
    """Aggregate per-query ledgers by fingerprint; reconcile exactly.

    The service owns one instance and calls :meth:`begin` when its lane
    starts (baselining the registry), then :meth:`attribute` once per
    finished query from the lane thread.  Reads (:meth:`report`,
    :meth:`top`) come from HTTP handler threads, hence the lock.

    The same class also aggregates *offline*: feed captured records via
    :meth:`attribute` without calling :meth:`begin`, and :meth:`report`
    simply omits the reconciliation section (there is no live registry
    window to reconcile against).
    """

    def __init__(self, registry=None):
        from .registry import get_registry

        self._registry = registry if registry is not None else get_registry()
        self._lock = threading.Lock()
        self._baseline: "dict | None" = None
        self._totals: "dict[str, int | float]" = {}
        self._wall = 0.0
        self._cpu = 0.0
        self._queries = 0
        self._groups: "dict[str, _Group]" = {}

    def begin(self) -> None:
        """Baseline the registry; reconciliation measures from here."""
        with self._lock:
            self._baseline = self._registry.snapshot()

    # ------------------------------------------------------------------

    def attribute(self, record) -> None:
        """Fold one finished query — a live or captured
        :class:`~repro.obs.flight.QueryContext` — into the totals."""
        ledger = record.ledger
        if ledger is None:
            raise ConfigurationError(
                f"workload record for query {record.query_id!r} "
                "carries no ledger"
            )
        with self._lock:
            self._queries += 1
            self._wall += ledger.wall_seconds
            self._cpu += ledger.cpu_seconds
            for name, value in ledger.counters.items():
                self._totals[name] = self._totals.get(name, 0) + value
            group = self._groups.get(record.fingerprint)
            if group is None:
                group = _Group(record.fingerprint, record.label, record.kind)
                self._groups[record.fingerprint] = group
            group.add(ledger, record.status, record.query_id)

    # ------------------------------------------------------------------

    @property
    def queries(self) -> int:
        with self._lock:
            return self._queries

    @property
    def fingerprints(self) -> int:
        with self._lock:
            return len(self._groups)

    def totals(self) -> dict:
        """Summed named resources plus wall/CPU across every query."""
        with self._lock:
            out = {
                field: self._totals.get(metric, 0)
                for field, metric in RESOURCE_COUNTERS.items()
            }
            out["wall_seconds"] = self._wall
            out["cpu_seconds"] = self._cpu
            out["queries"] = self._queries
            return out

    def top(self, k: int = 5, by: str = "wall") -> "list[dict]":
        """The K heaviest fingerprints by one ordering."""
        if by not in _ORDERINGS:
            raise ConfigurationError(
                f"top(by=...) must be one of {_ORDERINGS}, got {by!r}"
            )
        if k < 0:
            raise ConfigurationError(f"top k must be >= 0, got {k}")
        with self._lock:
            groups = sorted(
                self._groups.values(),
                key=lambda group: (-group.sort_value(by), group.fingerprint),
            )
            return [group.to_dict() for group in groups[:k]]

    def reconcile(self) -> dict:
        """Sum of per-query ledgers vs the registry since :meth:`begin`.

        For every named resource counter: the global registry movement,
        the attributed sum, and the difference.  ``exact`` is True only
        when every difference is zero.  Call while the lane is idle for
        the exact check — an in-flight query's partial movement shows up
        as transient unattributed counts.
        """
        with self._lock:
            if self._baseline is None:
                raise ConfigurationError(
                    "reconcile() needs begin() first (offline aggregations "
                    "have no registry window to reconcile against)"
                )
            delta = self._registry.delta(self._baseline)
            counters = {}
            exact = True
            for field, metric in RESOURCE_COUNTERS.items():
                entry = delta.get(metric)
                global_value = (
                    entry["value"]
                    if entry is not None and entry.get("kind") == "counter"
                    else 0
                )
                attributed = self._totals.get(metric, 0)
                unattributed = global_value - attributed
                if unattributed:
                    exact = False
                counters[field] = {
                    "global": global_value,
                    "attributed": attributed,
                    "unattributed": unattributed,
                }
            return {"exact": exact, "counters": counters}

    def report(self, top: int = 5) -> dict:
        """The ``GET /debug/workload`` payload: totals, reconciliation
        (live ledgers only), and heavy hitters per ordering."""
        out = {
            "queries": self.queries,
            "fingerprints": self.fingerprints,
            "totals": self.totals(),
            "top": {
                by: self.top(top, by=by)
                for by in ("wall", "pages", "comparisons")
            },
        }
        with self._lock:
            live = self._baseline is not None
        if live:
            out["reconciliation"] = self.reconcile()
        return out
