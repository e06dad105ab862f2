"""Workload capture and deterministic replay.

``serve --capture workload.jsonl`` turns live traffic into a regression
artifact: the service appends one :class:`WorkloadRecord` per finished
query — its fingerprint, parameters as *resolved* (algorithm, k,
signature bits, seed — not "auto"), its resource ledger, and a
SHA-256 **answer digest** over the sorted result plus the paper's x/y
accounting.  The capture file is rotated on service start via
:func:`repro.obs.rotation.rotate_jsonl` with the same
environment-fingerprint sidecar discipline as drift and trace histories.

:func:`replay_capture` (surfaced as ``repro replay``) re-executes a
capture against a database and diffs each query against its recording:

* **Answer digests must match bit-for-bit.**  Joins re-run with the
  recorded resolved plan, so the PR 2 invariant (results and x/y
  identical at any worker count or backend) makes the digest
  deterministic; a mismatch means the engine's answers changed.
* **Deterministic ledger resources must match exactly** — signature
  comparisons, replicated signatures, candidates, result pairs are
  functions of data + plan, not of machine state.
* **Physical resources** (pages, buffer hits/misses, WAL bytes) depend
  on cache state and layout, so replay reports their drift without
  failing on it.

Records that cannot replay deterministically — failed queries, churn
creates/drops whose relations are gone, resharding — are skipped with
a per-reason count, never silently.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field

from ..core.signatures import DEFAULT_SIGNATURE_BITS
from ..errors import ConfigurationError
from ..obs.ledger import QueryLedger, RESOURCE_COUNTERS
from ..obs.registry import get_registry
from ..obs.rotation import rotate_jsonl

__all__ = [
    "CAPTURE_SCHEMA",
    "ReplayReport",
    "WorkloadCapture",
    "WorkloadRecord",
    "answer_digest",
    "read_capture",
    "replay_capture",
]

#: Bump when the record layout changes incompatibly; readers refuse
#: records from a future schema instead of misinterpreting them.
CAPTURE_SCHEMA = 1

#: Ledger resources that are pure functions of (data, resolved plan) —
#: replay asserts these exactly.  Everything else in RESOURCE_COUNTERS
#: is cache/layout-dependent and only reported.
DETERMINISTIC_RESOURCES = (
    "signature_comparisons",
    "replicated_signatures",
    "candidates",
    "result_pairs",
)


def answer_digest(kind: str, result) -> dict:
    """Digest one query's answer into a comparable, order-free form.

    Joins digest the sorted pair list plus the paper's x/y accounting;
    probes digest the sorted tid list.  The SHA-256 is over a canonical
    text encoding, so two runs match iff the answers are bit-identical.
    """
    if kind == "join":
        pairs, metrics = result
        hasher = hashlib.sha256()
        for r_tid, s_tid in sorted(pairs):
            hasher.update(f"{r_tid},{s_tid}\n".encode())
        return {
            "sha256": hasher.hexdigest(),
            "pairs": len(pairs),
            "x": metrics.signature_comparisons,
            "y": metrics.replicated_signatures,
        }
    if kind == "probe":
        tids = sorted(result)
        hasher = hashlib.sha256()
        for tid in tids:
            hasher.update(f"{tid}\n".encode())
        return {"sha256": hasher.hexdigest(), "matches": len(tids)}
    if kind == "create":
        return {"rows": int(result)}
    return {}


@dataclass
class WorkloadRecord:
    """One captured query: identity, resolved parameters, bill, answer."""

    query_id: int
    kind: str
    fingerprint: str
    label: str
    params: dict
    status: str
    seconds: float
    attempts: int
    digest: dict = field(default_factory=dict)
    ledger: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
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
            "ledger": dict(self.ledger),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadRecord":
        if not isinstance(data, dict):
            raise ConfigurationError("workload record must be a JSON object")
        schema = data.get("schema")
        if not isinstance(schema, int) or schema > CAPTURE_SCHEMA:
            raise ConfigurationError(
                f"workload record schema {schema!r} not supported "
                f"(this reader understands <= {CAPTURE_SCHEMA})"
            )
        try:
            return cls(
                query_id=int(data["query_id"]),
                kind=str(data["kind"]),
                fingerprint=str(data["fingerprint"]),
                label=str(data.get("label", data["fingerprint"])),
                params=dict(data.get("params", {})),
                status=str(data["status"]),
                seconds=float(data.get("seconds", 0.0)),
                attempts=int(data.get("attempts", 1)),
                digest=dict(data.get("digest", {})),
                ledger=dict(data.get("ledger", {})),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ConfigurationError(
                f"malformed workload record: {error}"
            ) from error


class WorkloadCapture:
    """Append-only, rotated JSONL sink for :class:`WorkloadRecord`.

    Rotation (size cap + environment-fingerprint sidecar) happens once
    at :meth:`open_`-time, mirroring the drift- and trace-history
    discipline: a capture carried over from another machine is moved to
    ``<path>.stale`` rather than silently extended, because its timings
    and page counts describe different hardware.
    """

    def __init__(self, path: str, max_bytes: int = 16 * 1024 * 1024,
                 keep: int = 5000, registry=None, wall=None):
        if not path:
            raise ConfigurationError("capture path must be non-empty")
        self.path = path
        self.max_bytes = max_bytes
        self.keep = keep
        self._wall = wall if wall is not None else time.time
        self._lock = threading.Lock()
        self._handle = None
        self._records = (registry or get_registry()).counter(
            "setjoin_capture_records_total",
            "Workload records appended to the capture file",
        )

    def open_(self) -> dict:
        """Rotate the existing capture, then open for appending."""
        with self._lock:
            if self._handle is not None:
                raise ConfigurationError(
                    f"capture {self.path!r} is already open"
                )
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            rotation = rotate_jsonl(
                self.path, max_bytes=self.max_bytes, keep=self.keep,
                parse=lambda line: WorkloadRecord.from_dict(
                    json.loads(line)
                ).to_dict(),
                wall=self._wall,
            )
            self._handle = open(self.path, "a")
            return rotation

    def append(self, record: WorkloadRecord) -> None:
        line = json.dumps(record.to_dict(), sort_keys=True)
        with self._lock:
            if self._handle is None:
                raise ConfigurationError(
                    f"capture {self.path!r} is not open"
                )
            self._handle.write(line + "\n")
            self._handle.flush()
        self._records.inc()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def read_capture(path: str) -> "list[WorkloadRecord]":
    """Parse a capture file, raising on any malformed record.

    Strictness is deliberate: a replay run against a silently truncated
    capture would report spurious green.
    """
    records = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError as error:
                raise ConfigurationError(
                    f"{path}:{number}: not valid JSON ({error})"
                ) from error
            records.append(WorkloadRecord.from_dict(data))
    return records


@dataclass
class ReplayReport:
    """Outcome of replaying one capture against one database."""

    total: int = 0
    replayed: int = 0
    matched: int = 0
    skipped: dict = field(default_factory=dict)
    digest_mismatches: list = field(default_factory=list)
    ledger_mismatches: list = field(default_factory=list)
    resource_drift: dict = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.digest_mismatches and not self.ledger_mismatches

    def assert_clean(self) -> None:
        """Raise unless every replayed query matched its recording."""
        if self.clean:
            return
        problems = []
        for entry in self.digest_mismatches[:5]:
            problems.append(
                f"query {entry['query_id']}: digest {entry['recorded']} "
                f"!= {entry['replayed']}"
            )
        for entry in self.ledger_mismatches[:5]:
            problems.append(
                f"query {entry['query_id']}: {entry['resource']} "
                f"{entry['recorded']} != {entry['replayed']}"
            )
        raise ConfigurationError(
            f"replay diverged on {len(self.digest_mismatches)} digest and "
            f"{len(self.ledger_mismatches)} ledger comparisons: "
            + "; ".join(problems)
        )

    def _skip(self, reason: str) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "replayed": self.replayed,
            "matched": self.matched,
            "clean": self.clean,
            "skipped": dict(self.skipped),
            "digest_mismatches": list(self.digest_mismatches),
            "ledger_mismatches": list(self.ledger_mismatches),
            "resource_drift": dict(self.resource_drift),
        }


def _replay_join(record: WorkloadRecord, db, workers: int, backend: str):
    params = record.params
    r_name = params.get("r")
    s_name = params.get("s")
    if not r_name or not s_name:
        raise ConfigurationError(
            f"join record {record.query_id} lacks relation names"
        )
    algorithm = params.get("algorithm")
    if not algorithm or algorithm == "auto":
        raise ConfigurationError(
            f"join record {record.query_id} carries unresolved algorithm "
            f"{algorithm!r} — captures store the resolved plan"
        )
    return db.join(
        r_name, s_name,
        algorithm=algorithm,
        num_partitions=params.get("num_partitions"),
        signature_bits=params.get("signature_bits", DEFAULT_SIGNATURE_BITS),
        seed=params.get("seed", 0),
        workers=workers,
        backend=backend if workers > 1 else "serial",
    )


def replay_capture(records, db, *, workers: int = 1,
                   backend: str = "serial",
                   registry=None) -> ReplayReport:
    """Re-execute a capture against ``db`` and diff against recordings.

    Only successfully-completed join and probe records replay — they
    are the deterministic, repeatable classes.  Churn (create/drop) and
    reshard records mutated state that the capture alone cannot restore,
    and failed queries have no recorded answer; both are skipped with
    reasons.  ``workers``/``backend`` may differ from the capturing
    service: answers must still match bit-for-bit (the PR 2 invariance),
    which is exactly what makes replay a regression check rather than a
    re-measurement.
    """
    reg = registry if registry is not None else get_registry()
    report = ReplayReport()
    drift_totals: "dict[str, int]" = {}
    for record in records:
        report.total += 1
        if record.status != "ok":
            report._skip(f"status_{record.status}")
            continue
        if record.kind not in ("join", "probe"):
            report._skip(f"kind_{record.kind}")
            continue
        relations = []
        if record.kind == "join":
            relations = [record.params.get("r"), record.params.get("s")]
        else:
            relations = [record.params.get("name")]
        try:
            known = set(db.relation_names())
        except Exception:
            known = set()
        if any(name not in known for name in relations):
            report._skip("missing_relation")
            continue

        baseline = reg.snapshot()
        if record.kind == "join":
            result = _replay_join(record, db, workers, backend)
        else:
            result = db.probe(
                record.params["name"], record.params.get("elements", [])
            )
        delta = reg.delta(baseline)
        replayed_ledger = QueryLedger.from_delta(delta, 0.0, 0.0)
        report.replayed += 1

        digest = answer_digest(record.kind, result)
        matched = True
        if digest != record.digest:
            matched = False
            report.digest_mismatches.append({
                "query_id": record.query_id,
                "kind": record.kind,
                "recorded": record.digest,
                "replayed": digest,
            })

        recorded_resources = record.ledger.get("resources", {})
        replayed_resources = replayed_ledger.resources
        for resource in DETERMINISTIC_RESOURCES:
            if resource not in recorded_resources:
                continue
            recorded = recorded_resources[resource]
            replayed = replayed_resources.get(resource, 0)
            if recorded != replayed:
                matched = False
                report.ledger_mismatches.append({
                    "query_id": record.query_id,
                    "resource": resource,
                    "recorded": recorded,
                    "replayed": replayed,
                })
        for resource in RESOURCE_COUNTERS:
            if resource in DETERMINISTIC_RESOURCES:
                continue
            recorded = recorded_resources.get(resource)
            if recorded is None:
                continue
            drift_totals[resource] = (
                drift_totals.get(resource, 0)
                + (replayed_resources.get(resource, 0) - recorded)
            )
        if matched:
            report.matched += 1
    report.resource_drift = drift_totals
    return report
