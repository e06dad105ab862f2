"""Workload capture and deterministic replay.

``serve --capture workload.jsonl`` turns live traffic into a regression
artifact: the service appends one line per finished query — its
:class:`~repro.obs.flight.QueryContext` without the evidence fields:
fingerprint, parameters as *resolved* (algorithm, k, signature bits,
seed — not "auto"), resource ledger, and a SHA-256 **answer digest**
over the sorted result plus the paper's x/y accounting.  The capture
file is a :class:`~repro.obs.rotation.JsonlSink`, rotated on service
start with the same environment-fingerprint sidecar discipline as the
drift and trace histories.

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
from dataclasses import dataclass, field

from ..core.signatures import DEFAULT_SIGNATURE_BITS
from ..errors import ConfigurationError
from ..obs.flight import CAPTURE_SCHEMA, QueryContext
from ..obs.ledger import LedgerWindow
from ..obs.registry import get_registry

__all__ = [
    "CAPTURE_SCHEMA",
    "ReplayReport",
    "answer_digest",
    "capture_line",
    "read_capture",
    "replay_capture",
]

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


def capture_line(line: str) -> dict:
    """Rotation ``parse`` hook: one capture line as its canonical
    record, so compaction sheds what :func:`read_capture` would refuse."""
    return QueryContext.from_dict(json.loads(line)).to_dict(evidence=False)


def read_capture(path: str) -> "list[QueryContext]":
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
            records.append(QueryContext.from_dict(data))
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


def _replay_join(record: QueryContext, db, workers: int, backend: str):
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

        window = LedgerWindow(reg)
        if record.kind == "join":
            result = _replay_join(record, db, workers, backend)
        else:
            result = db.probe(
                record.params["name"], record.params.get("elements", [])
            )
        replayed_resources = window.close().resources
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

        recorded_resources = (
            record.ledger.resources if record.ledger is not None else {}
        )
        for resource, recorded in recorded_resources.items():
            replayed = replayed_resources[resource]
            if resource not in DETERMINISTIC_RESOURCES:
                drift_totals[resource] = (
                    drift_totals.get(resource, 0) + replayed - recorded
                )
            elif recorded != replayed:
                matched = False
                report.ledger_mismatches.append({
                    "query_id": record.query_id,
                    "resource": resource,
                    "recorded": recorded,
                    "replayed": replayed,
                })
        if matched:
            report.matched += 1
    report.resource_drift = drift_totals
    return report
