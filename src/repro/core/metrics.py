"""Join execution metrics.

Every join run produces a :class:`JoinMetrics` recording the quantities
the paper's analysis is built on:

* ``signature_comparisons`` (``x`` in the paper's time model) and the
  derived comparison factor,
* ``replicated_signatures`` (``y``) and the derived replication factor,
* physical page I/O per phase,
* wall-clock time per phase (partitioning / joining / verification),
* candidate and false-positive counts from the signature filter, and
  the candidates a lossless signature proved without a fetch.

These are what the calibration step (Section 5) fits the time model
``time(x, y, k) = c1·x + c2·y·k^c3`` against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..storage.pager import IOStats

__all__ = ["PhaseMetrics", "JoinMetrics"]


@dataclass
class PhaseMetrics:
    """Wall time and physical I/O of one execution phase."""

    seconds: float = 0.0
    page_reads: int = 0
    page_writes: int = 0

    @classmethod
    def from_io_delta(cls, seconds: float, delta: IOStats) -> "PhaseMetrics":
        return cls(seconds, delta.page_reads, delta.page_writes)

    def __add__(self, other: "PhaseMetrics") -> "PhaseMetrics":
        """Component-wise sum: combined time and I/O of two phase runs.

        Summing seconds treats the phases as sequential; a parallel
        caller (the partition-parallel engine) overwrites ``seconds``
        with the observed wall clock after merging.
        """
        if not isinstance(other, PhaseMetrics):
            return NotImplemented
        return PhaseMetrics(
            self.seconds + other.seconds,
            self.page_reads + other.page_reads,
            self.page_writes + other.page_writes,
        )


@dataclass
class JoinMetrics:
    """Complete measurement record of one set-containment-join execution."""

    algorithm: str = ""
    num_partitions: int = 0
    r_size: int = 0
    s_size: int = 0
    signature_bits: int = 0

    signature_comparisons: int = 0
    replicated_signatures: int = 0
    #: partition entries held in memory-resident partitions (never written
    #: to disk); zero unless the operator's resident_partitions option is on.
    resident_signatures: int = 0
    candidates: int = 0
    false_positives: int = 0
    result_size: int = 0
    set_comparisons: int = 0
    #: candidates accepted without a fetch: the run's signatures were its
    #: sets (every element below ``signature_bits``), so verification was
    #: elided.  ``set_comparisons`` and ``false_positives`` count only the
    #: subset tests actually run.
    proven_by_signature: int = 0

    #: buffer-pool behaviour over the whole run (parent pool plus, for
    #: parallel runs, the workers' private pools).
    buffer_hits: int = 0
    buffer_misses: int = 0

    partitioning: PhaseMetrics = field(default_factory=PhaseMetrics)
    joining: PhaseMetrics = field(default_factory=PhaseMetrics)
    verification: PhaseMetrics = field(default_factory=PhaseMetrics)

    #: parallel runs only: each shard's joining-phase share (true wall
    #: seconds and page I/O per worker), in shard index order.  The
    #: aggregate ``joining`` phase keeps the parent's observed wall
    #: clock; this list preserves the per-shard timings the merge step
    #: previously discarded.
    shard_joining: list[PhaseMetrics] = field(default_factory=list)

    @classmethod
    def merge(cls, parts: "list[JoinMetrics]") -> "JoinMetrics":
        """Aggregate per-worker metrics into one record.

        The paper's accounting quantities are additive across workers by
        construction: every signature comparison (``x``) and every
        replicated signature (``y``) happens in exactly one worker, so
        summing preserves them exactly.  Phase metrics are summed with
        :meth:`PhaseMetrics.__add__` (summed seconds = total CPU-side
        work; the engine overwrites the joining phase's ``seconds`` with
        the parent's wall clock afterwards).

        ``candidates``/``result_size`` are summed too, which over-counts
        when the same pair is found by several workers (possible under
        DCJ's replication); callers that deduplicate across workers —
        the engine's merge layer — must recount those after the union.

        Header fields (algorithm, k, |R|, |S|, signature bits) are taken
        from the first record; merging records that disagree on them is
        a :class:`~repro.errors.ConfigurationError`.
        """
        from ..errors import ConfigurationError

        if not parts:
            raise ConfigurationError("cannot merge an empty list of metrics")
        first = parts[0]
        header = (first.algorithm, first.num_partitions, first.r_size,
                  first.s_size, first.signature_bits)
        merged = cls(*header)
        for part in parts:
            if (part.algorithm, part.num_partitions, part.r_size,
                    part.s_size, part.signature_bits) != header:
                raise ConfigurationError(
                    "refusing to merge metrics from different join "
                    f"configurations: {header} vs "
                    f"{(part.algorithm, part.num_partitions, part.r_size, part.s_size, part.signature_bits)}"
                )
            merged.signature_comparisons += part.signature_comparisons
            merged.replicated_signatures += part.replicated_signatures
            merged.resident_signatures += part.resident_signatures
            merged.candidates += part.candidates
            merged.false_positives += part.false_positives
            merged.result_size += part.result_size
            merged.set_comparisons += part.set_comparisons
            merged.proven_by_signature += part.proven_by_signature
            merged.buffer_hits += part.buffer_hits
            merged.buffer_misses += part.buffer_misses
            merged.partitioning = merged.partitioning + part.partitioning
            merged.joining = merged.joining + part.joining
            merged.verification = merged.verification + part.verification
            merged.shard_joining.extend(part.shard_joining)
        return merged

    @property
    def comparison_factor(self) -> float:
        """Measured comparison factor: x / (|R|·|S|)."""
        denominator = self.r_size * self.s_size
        return self.signature_comparisons / denominator if denominator else 0.0

    @property
    def replication_factor(self) -> float:
        """Measured replication factor: y / (|R| + |S|)."""
        denominator = self.r_size + self.s_size
        return self.replicated_signatures / denominator if denominator else 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.partitioning.seconds
            + self.joining.seconds
            + self.verification.seconds
        )

    @property
    def total_page_reads(self) -> int:
        return (
            self.partitioning.page_reads
            + self.joining.page_reads
            + self.verification.page_reads
        )

    @property
    def total_page_writes(self) -> int:
        return (
            self.partitioning.page_writes
            + self.joining.page_writes
            + self.verification.page_writes
        )

    @property
    def filter_precision(self) -> float:
        """Fraction of signature-filter candidates that truly join."""
        return self.result_size / self.candidates if self.candidates else 1.0

    @property
    def buffer_hit_rate(self) -> float:
        """Fraction of buffer-pool fetches served from memory."""
        total = self.buffer_hits + self.buffer_misses
        return self.buffer_hits / total if total else 0.0

    def as_row(self) -> dict:
        """Flat dict for tabular reporting (benchmarks, EXPERIMENTS.md)."""
        return {
            "algorithm": self.algorithm,
            "k": self.num_partitions,
            "|R|": self.r_size,
            "|S|": self.s_size,
            "comparisons": self.signature_comparisons,
            "comp_factor": round(self.comparison_factor, 6),
            "replicated": self.replicated_signatures,
            "repl_factor": round(self.replication_factor, 6),
            "candidates": self.candidates,
            "false_positives": self.false_positives,
            "results": self.result_size,
            "t_partition_s": round(self.partitioning.seconds, 6),
            "t_join_s": round(self.joining.seconds, 6),
            "t_verify_s": round(self.verification.seconds, 6),
            "t_total_s": round(self.total_seconds, 6),
            "page_reads": self.total_page_reads,
            "page_writes": self.total_page_writes,
            "buffer_hit_rate": round(self.buffer_hit_rate, 4),
        }
