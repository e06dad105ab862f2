"""Process-wide metrics registry: counters, gauges, histograms.

The substrate already counts everything the paper's analysis needs —
signature comparisons (``x``), replicated signatures (``y``), physical
page I/O, buffer hits/misses, WAL fsyncs — but each layer keeps its own
ad-hoc counters.  This module unifies them behind one API without
changing the accounting itself: layers keep their local counters (they
stay authoritative for the paper's numbers) and *publish* into the
registry, either incrementally (WAL fsyncs) or at join completion
(:func:`record_join`).

Metric naming follows Prometheus conventions (``setjoin_`` prefix,
``_total`` suffix on counters) so :func:`repro.obs.export.prometheus_text`
can render the registry directly.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import OrderedDict

from ..errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "record_join",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets: log-spaced seconds from 1ms to ~2min.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0,
)


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: "int | float" = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def _reset(self) -> None:
        self.value = 0


class Gauge:
    """A value that can go up and down (last write wins)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def _reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Cumulative-bucket histogram of observed values."""

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "bucket_counts", "sum", "count")

    def __init__(self, name: str, help: str = "",
                 buckets: "tuple[float, ...]" = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigurationError(
                f"histogram {name} needs sorted, non-empty buckets"
            )
        self.name = name
        self.help = help
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        if index < len(self.bucket_counts):
            self.bucket_counts[index] += 1
        self.sum += value
        self.count += 1

    @property
    def observations(self) -> int:
        """Observation count, exposed so ratio math (percentiles, SLO
        burn rates) can guard against dividing by zero on an idle
        series instead of special-casing ``percentile() is None``."""
        return self.count

    def cumulative(self) -> "list[tuple[float, int]]":
        """``(le, cumulative_count)`` per bucket, Prometheus style."""
        total = 0
        out = []
        for upper, count in zip(self.buckets, self.bucket_counts):
            total += count
            out.append((upper, total))
        return out

    def percentile(self, q: float) -> "float | None":
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation within the owning bucket, the same estimate
        ``histogram_quantile`` computes from cumulative buckets.  Values
        beyond the last finite bucket clamp to its upper bound (all that
        is known about them), and ``None`` is returned when the
        histogram has no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"percentile q must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        lower = 0.0
        for upper, bucket_count in zip(self.buckets, self.bucket_counts):
            if bucket_count and cumulative + bucket_count >= rank:
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * max(0.0, min(fraction, 1.0))
            cumulative += bucket_count
            lower = upper
        # rank falls in the overflow (+Inf) bucket: clamp to the last
        # finite bound, as Prometheus does.
        return float(self.buckets[-1])

    def _reset(self) -> None:
        self.bucket_counts = [0] * len(self.buckets)
        self.sum = 0.0
        self.count = 0


class MetricsRegistry:
    """Get-or-create store of named metrics.

    Re-requesting a name returns the same object (so layers can cache
    metric handles at init and pay one dict lookup, not one per event);
    requesting an existing name as a different kind is an error.
    """

    def __init__(self):
        self._metrics: "OrderedDict[str, Counter | Gauge | Histogram]" = (
            OrderedDict()
        )

    def _get_or_create(self, factory, name: str, help: str, **kwargs):
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, factory):
            raise ConfigurationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: "tuple[float, ...]" = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def metrics(self) -> "list[Counter | Gauge | Histogram]":
        return list(self._metrics.values())

    def get(self, name: str):
        return self._metrics.get(name)

    def as_dict(self) -> dict:
        """Flat ``{name: value}`` snapshot (histograms expand to
        ``name_sum`` / ``name_count``)."""
        out: dict = {}
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                out[f"{metric.name}_sum"] = metric.sum
                out[f"{metric.name}_count"] = metric.count
            else:
                out[metric.name] = metric.value
        return out

    def snapshot(self) -> dict:
        """Full value snapshot, plain data only (picklable).

        The baseline for :meth:`delta`: a forked worker snapshots the
        registry it inherited before doing any work, so the delta it
        ships home contains only its own contribution.
        """
        out: dict = {}
        for metric in self._metrics.values():
            if isinstance(metric, Histogram):
                out[metric.name] = {
                    "kind": "histogram",
                    "help": metric.help,
                    "buckets": list(metric.buckets),
                    "bucket_counts": list(metric.bucket_counts),
                    "sum": metric.sum,
                    "count": metric.count,
                }
            else:
                out[metric.name] = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "value": metric.value,
                }
        return out

    def delta(self, baseline: dict) -> dict:
        """What changed since ``baseline`` (a :meth:`snapshot`).

        Counters and histograms carry *differences* (additive on merge);
        gauges are last-write-wins and carry their absolute value, and
        appear only when they changed.  The result is plain data, safe
        to pickle across a process boundary.
        """
        out: dict = {}
        for name, entry in self.snapshot().items():
            before = baseline.get(name)
            if entry["kind"] == "counter":
                previous = before["value"] if before is not None else 0
                change = entry["value"] - previous
                if change:
                    out[name] = dict(entry, value=change)
            elif entry["kind"] == "gauge":
                if before is None or before["value"] != entry["value"]:
                    out[name] = dict(entry)
            else:
                previous_counts = (
                    before["bucket_counts"] if before is not None
                    else [0] * len(entry["bucket_counts"])
                )
                counts = [
                    now - then for now, then
                    in zip(entry["bucket_counts"], previous_counts)
                ]
                count = entry["count"] - (
                    before["count"] if before is not None else 0
                )
                if count:
                    out[name] = dict(
                        entry,
                        bucket_counts=counts,
                        count=count,
                        sum=entry["sum"] - (
                            before["sum"] if before is not None else 0.0
                        ),
                    )
        return out

    def merge_delta(self, delta: dict) -> None:
        """Fold a worker's :meth:`delta` into this registry.

        Counters increment, gauges adopt the worker's last value,
        histogram buckets add element-wise.  Metrics the parent has not
        seen yet are created with the worker's help text, so a scrape of
        the parent after a process-parallel join shows the union.
        """
        for name, entry in delta.items():
            if entry["kind"] == "counter":
                self.counter(name, entry.get("help", "")).inc(entry["value"])
            elif entry["kind"] == "gauge":
                self.gauge(name, entry.get("help", "")).set(entry["value"])
            elif entry["kind"] == "histogram":
                buckets = tuple(entry["buckets"])
                histogram = self.histogram(
                    name, entry.get("help", ""), buckets=buckets
                )
                if histogram.buckets != buckets:
                    raise ConfigurationError(
                        f"histogram {name!r} delta has buckets {buckets}, "
                        f"registry has {histogram.buckets}"
                    )
                for index, count in enumerate(entry["bucket_counts"]):
                    histogram.bucket_counts[index] += count
                histogram.sum += entry["sum"]
                histogram.count += entry["count"]
            else:
                raise ConfigurationError(
                    f"unknown metric kind {entry['kind']!r} in delta for "
                    f"{name!r}"
                )

    def reset(self) -> None:
        """Zero every metric, keeping object identity (cached handles in
        long-lived components stay valid)."""
        for metric in self._metrics.values():
            metric._reset()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def record_join(metrics, registry: MetricsRegistry | None = None) -> None:
    """Publish one :class:`~repro.core.metrics.JoinMetrics` record.

    This is the bridge from the paper's per-join accounting to the
    process-wide registry: x/y, candidates, verification outcomes,
    per-phase wall time and page I/O, and buffer-pool behaviour all
    become Prometheus-ready series.  The JoinMetrics object itself is
    untouched — the paper's numbers stay authoritative.
    """
    reg = registry if registry is not None else _REGISTRY
    reg.counter(
        "setjoin_joins_total", "Completed set-containment joins"
    ).inc()
    reg.counter(
        "setjoin_signature_comparisons_total",
        "Signature comparisons (x in the paper's time model)",
    ).inc(metrics.signature_comparisons)
    reg.counter(
        "setjoin_replicated_signatures_total",
        "Replicated signatures (y in the paper's time model)",
    ).inc(metrics.replicated_signatures)
    reg.counter(
        "setjoin_candidates_total", "Signature-filter candidate pairs"
    ).inc(metrics.candidates)
    reg.counter(
        "setjoin_false_positives_total",
        "Candidates eliminated by exact verification",
    ).inc(metrics.false_positives)
    reg.counter(
        "setjoin_result_pairs_total", "Verified result pairs"
    ).inc(metrics.result_size)
    for phase in ("partitioning", "joining", "verification"):
        record = getattr(metrics, phase)
        reg.counter(
            f"setjoin_phase_{phase}_seconds_total",
            f"Wall-clock seconds spent in the {phase} phase",
        ).inc(record.seconds)
        reg.counter(
            f"setjoin_phase_{phase}_page_reads_total",
            f"Physical page reads during the {phase} phase",
        ).inc(record.page_reads)
        reg.counter(
            f"setjoin_phase_{phase}_page_writes_total",
            f"Physical page writes during the {phase} phase",
        ).inc(record.page_writes)
    reg.counter(
        "setjoin_page_reads_total", "Physical page reads, all phases"
    ).inc(metrics.total_page_reads)
    reg.counter(
        "setjoin_page_writes_total", "Physical page writes, all phases"
    ).inc(metrics.total_page_writes)
    reg.counter(
        "setjoin_buffer_hits_total", "Buffer pool hits during joins"
    ).inc(metrics.buffer_hits)
    reg.counter(
        "setjoin_buffer_misses_total", "Buffer pool misses during joins"
    ).inc(metrics.buffer_misses)
    reg.gauge(
        "setjoin_last_buffer_hit_rate",
        "Buffer pool hit rate of the most recent join",
    ).set(metrics.buffer_hit_rate)
    reg.histogram(
        "setjoin_join_seconds",
        "End-to-end join wall time distribution",
    ).observe(metrics.total_seconds)
