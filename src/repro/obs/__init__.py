"""Observability: span tracing, metrics registry, exporters.

The paper's argument is quantitative — x/y counts, per-phase I/O, the
calibrated time model ``time(x, y, k) = c1·x + c2·y·k^c3`` — so the
testbed needs to *see* where time and I/O go.  This package provides the
cross-cutting layer the rest of the system reports through:

* :mod:`.trace` — a lightweight span tracer with explicit clock
  injection, nested spans, attributes, and cross-process stitching (the
  partition-parallel workers serialize their spans back to the parent).
* :mod:`.registry` — a process-wide registry of counters, gauges and
  histograms unifying the ad-hoc counters the substrate already keeps
  (signature comparisons, replications, page I/O, buffer hits/misses,
  WAL fsyncs) behind one API, without touching the paper's x/y
  accounting.
* :mod:`.export` — exporters: JSONL trace files, Prometheus text
  format, and a human-readable console summary with a flamegraph-style
  phase breakdown.
* :mod:`.explain` — the EXPLAIN/ANALYZE plan inspector: predicted plan
  trees (for DCJ, the actual α/β operator tree) annotated with the
  analytical model, and — in ANALYZE mode — with the observed values
  and per-node relative errors.
* :mod:`.drift` — predicted-vs-observed drift records, published to the
  registry and persisted as JSONL, so time-model staleness is visible.
* :mod:`.adaptive` — the *act* half of the loop: a
  :class:`~repro.obs.adaptive.Recalibrator` refits the time model from
  accumulated drift when its wall-time bias exceeds a threshold,
  versioned into a :class:`~repro.obs.adaptive.ModelStore` that the
  optimizer plans with.
* :mod:`.serve` — a stdlib HTTP endpoint (``/metrics``, ``/healthz``)
  serving the registry in Prometheus text format.
* :mod:`.ledger` — per-query resource attribution: lane-window registry
  deltas become :class:`~repro.obs.ledger.QueryLedger` bills, stable
  :func:`~repro.obs.ledger.query_fingerprint` keys collapse a mixed
  workload into its recurring shapes, and the
  :class:`~repro.obs.ledger.WorkloadLedger` aggregates heavy hitters
  and reconciles attributed totals against the global registry exactly.

Tracing is opt-in and free when off: the ambient tracer defaults to
:data:`~repro.obs.trace.NULL_TRACER`, whose spans are shared no-op
objects.
"""

from .registry import MetricsRegistry, get_registry, record_join
from .trace import NULL_TRACER, Span, Tracer, current_tracer, use_tracer
from .export import (
    console_summary,
    prometheus_text,
    span_records,
    validate_trace_records,
    write_trace_jsonl,
)

# The inspector/drift/serve modules import core and analysis code, while
# repro.core.operator imports this package for its registry and tracer —
# so they must load lazily (PEP 562) to keep the import graph acyclic.
_LAZY = {
    "PlanNode": "explain",
    "ExplainReport": "explain",
    "AnalyzeResult": "explain",
    "build_plan_from_statistics": "explain",
    "attach_observed": "explain",
    "explain_join": "explain",
    "analyze_join": "explain",
    "DriftRecord": "drift",
    "compute_drift": "drift",
    "record_drift": "drift",
    "append_drift_jsonl": "drift",
    "read_drift_jsonl": "drift",
    "summarize_drift": "drift",
    "calibration_residuals": "drift",
    "MetricsServer": "serve",
    "serve_metrics": "serve",
    "ModelVersion": "adaptive",
    "ModelStore": "adaptive",
    "RefitOutcome": "adaptive",
    "Recalibrator": "adaptive",
    "samples_from_history": "adaptive",
    "publish_model": "adaptive",
    "RESOURCE_COUNTERS": "ledger",
    "Fingerprint": "ledger",
    "QueryLedger": "ledger",
    "WorkloadLedger": "ledger",
    "normalize_workload_name": "ledger",
    "query_fingerprint": "ledger",
}

__all__ = [
    "MetricsRegistry",
    "get_registry",
    "record_join",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "current_tracer",
    "use_tracer",
    "console_summary",
    "prometheus_text",
    "span_records",
    "validate_trace_records",
    "write_trace_jsonl",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
