"""Stack-sampling profiler attributing wall time to operator phases.

The ROADMAP's next perf item (packed-bitmap signature kernels) rests on
a claim — that the signature-inclusion loop in ``compare_block``
dominates join wall time — which so far is asserted, not measured.
:class:`SamplingProfiler` produces the evidence: a daemon thread
periodically snapshots every thread's stack via
``sys._current_frames()`` and classifies each sample to a named
operator phase (``join.compare_block``, ``partition``, ``verify``,
``storage.*``, ``dist.*`` …) by walking the stack innermost-outward and
matching known functions and modules of this package.

Design constraints, mirrored from the tracer:

* **Injected clock and sleep** so tests can drive sampling cadence and
  measure overhead deterministically.
* **Observation-only** — the sampler never touches engine state, so
  results are bit-identical with the profiler on or off.
* **Self-accounting** — the sampler measures its own time per tick;
  :attr:`overhead` reports sampler-seconds / elapsed wall so the <5%
  overhead budget at the default rate is checkable in CI.

``sample_once`` accepts an explicit ``{thread_id: frame}`` mapping so
the classifier is unit-testable without real threads.
"""

from __future__ import annotations

import os
import sys
import threading
import time

__all__ = ["SamplingProfiler", "classify_stack"]

#: Default sampling rate.  A prime Hz avoids phase-locking with loops
#: that happen to run at round frequencies.
DEFAULT_HZ = 67.0

#: Innermost-first function-name → phase table.  First match on the
#: walk from the innermost frame outward wins, so a sample inside
#: ``compare_block`` called from ``_join_phase`` counts as the kernel,
#: not the scan around it.
FUNCTION_PHASES = {
    "compare_block": "join.compare_block",
    "compare_packed": "join.compare_block",
    "_r_blocks": "join.scan",
    "_join_phase": "join.scan",
    "_join_and_verify_phase": "join.scan",
    "_parallel_join_phase": "join.dispatch",
    "run_parallel_join": "join.dispatch",
    "run_shard": "join.worker",
    "signature_of": "partition.signature",
    "signature_matrix": "partition.signature",
    # The columnar partition loop's own steps, so the report names the step
    # and not just ``partition_relation``.  ``scan_batches`` and the batch
    # decoder are deliberately absent: the partition loop and ``probe``
    # share them, and the walk reaches whichever called them.
    "evaluate_batch": "partition",
    "_route_batch": "partition",
    "assign_batch": "partition",
    "append_entries": "partition",
    "partition_relation": "partition",
    "probe": "probe",
    "_partition_phase": "partition",
    # ``scan_ranges``, ``fetch_batches`` and the batch decoder are absent
    # for the same reason: ``fetch_many`` callers share them, and under a
    # join the walk reaches ``verify_pairs``.
    "_hit_counts": "verify",
    "_verification_phase": "verify",
    "verify_pairs": "verify",
    "execute_join": "dist.shard",
    "_dispatch": "dist.fanout",
    "_place": "dist.placement",
    "_merge_metrics": "dist.merge",
}

#: Module-basename → phase fallback when no function matched.
MODULE_PHASES = {
    "signatures.py": "partition.signature",
    "partitioner.py": "partition",
    "partition_store.py": "storage.partitions",
    "relation_store.py": "storage.relations",
    "btree.py": "storage.btree",
    "buffer.py": "storage.buffer",
    "pager.py": "storage.pager",
    "disk.py": "storage.disk",
    "wal.py": "storage.wal",
    "sets.py": "verify",
    "intersection.py": "verify",
    "merge.py": "join.merge",
    "scheduler.py": "join.dispatch",
    "coordinator.py": "dist",
    "placement.py": "dist.placement",
    "operator.py": "join",
    "api.py": "join",
    "optimizer.py": "plan",
    "analysis": "plan",
    "hashing.py": "plan",
    "core.py": "service",
    "queue.py": "service",
    "retry.py": "service",
    "distributions.py": "data.generate",
    "generator.py": "data.generate",
    "workloads.py": "data.generate",
    "io.py": "data.io",
    "trace.py": "obs",
    "registry.py": "obs",
    "export.py": "obs",
    "profile.py": "obs",
    "flight.py": "obs",
}

_PACKAGE_MARKER = os.sep + "repro" + os.sep


def classify_stack(frame) -> "tuple[str, str] | None":
    """Map one thread's innermost frame to ``(phase, function)``.

    Walks outward until a frame inside this package matches
    :data:`FUNCTION_PHASES` (or, failing that, :data:`MODULE_PHASES`).
    Returns ``None`` for stacks with no ``repro`` frame at all (idle
    interpreter threads, the sampler itself) so they never dilute the
    report; a ``repro`` stack nothing matches classifies as
    ``("unknown", "<file>:<function>")`` — the acceptance criterion
    caps that bucket, so growth there means the table needs a row.
    """
    fallback = None
    innermost_repro = None
    current = frame
    while current is not None:
        code = current.f_code
        filename = code.co_filename
        if _PACKAGE_MARKER in filename:
            basename = os.path.basename(filename)
            label = f"{basename}:{code.co_name}"
            if innermost_repro is None:
                innermost_repro = label
            phase = FUNCTION_PHASES.get(code.co_name)
            if phase is not None:
                return phase, label
            if fallback is None:
                module_phase = MODULE_PHASES.get(basename)
                if module_phase is not None:
                    fallback = (module_phase, label)
        current = current.f_back
    if fallback is not None:
        return fallback
    if innermost_repro is not None:
        return "unknown", innermost_repro
    return None


class SamplingProfiler:
    """Daemon-thread stack sampler with per-phase attribution."""

    def __init__(self, hz: float = DEFAULT_HZ, clock=None, sleep=None,
                 frames=None):
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        self.hz = hz
        self.interval = 1.0 / hz
        self._clock = clock if clock is not None else time.perf_counter
        self._frames = frames if frames is not None else sys._current_frames
        self._sleep = sleep
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._samples = 0
        self._phase_counts: dict = {}
        self._function_counts: dict = {}
        self._sampler_seconds = 0.0
        self._started_at: float | None = None
        self._elapsed = 0.0

    # -- sampling core ---------------------------------------------------

    def sample_once(self, frames=None) -> int:
        """Take one sample over ``frames`` (default: live threads).

        Returns how many thread stacks were attributed.  Separated from
        the daemon loop so tests can feed synthetic frames.
        """
        t0 = self._clock()
        frames = frames if frames is not None else self._frames()
        own = threading.get_ident()
        attributed = 0
        hits = []
        for thread_id, frame in frames.items():
            if thread_id == own:
                continue
            hit = classify_stack(frame)
            if hit is not None:
                hits.append(hit)
        with self._lock:
            self._samples += 1
            for phase, label in hits:
                self._phase_counts[phase] = \
                    self._phase_counts.get(phase, 0) + 1
                self._function_counts[label] = \
                    self._function_counts.get(label, 0) + 1
                attributed += 1
            self._sampler_seconds += self._clock() - t0
        return attributed

    def _run(self) -> None:
        wait = self._sleep if self._sleep is not None else self._stop.wait
        while not self._stop.is_set():
            self.sample_once()
            wait(self.interval)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._started_at = self._clock()
        self._thread = threading.Thread(
            target=self._run, name="setjoin-profiler", daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        if self._started_at is not None:
            self._elapsed += self._clock() - self._started_at
            self._started_at = None

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- reporting -------------------------------------------------------

    @property
    def elapsed(self) -> float:
        total = self._elapsed
        if self._started_at is not None:
            total += self._clock() - self._started_at
        return total

    @property
    def overhead(self) -> float:
        """Fraction of wall time spent inside the sampler itself."""
        elapsed = self.elapsed
        if elapsed <= 0.0:
            return 0.0
        with self._lock:
            return self._sampler_seconds / elapsed

    def report(self, top: int = 15) -> dict:
        """Hot-path attribution: per-phase and per-function shares."""
        with self._lock:
            samples = self._samples
            phases = dict(self._phase_counts)
            functions = dict(self._function_counts)
        attributed = sum(phases.values())
        share = lambda n: (n / attributed) if attributed else 0.0  # noqa: E731
        phase_rows = [
            {"phase": phase, "samples": count, "share": share(count)}
            for phase, count in sorted(
                phases.items(), key=lambda item: (-item[1], item[0]),
            )
        ]
        function_rows = [
            {"function": label, "samples": count, "share": share(count)}
            for label, count in sorted(
                functions.items(), key=lambda item: (-item[1], item[0]),
            )[:top]
        ]
        return {
            "hz": self.hz,
            "samples": samples,
            "attributed": attributed,
            "elapsed_seconds": self.elapsed,
            "overhead": self.overhead,
            "unknown_share": share(phases.get("unknown", 0)),
            "phases": phase_rows,
            "top_functions": function_rows,
        }

    def render(self, top: int = 15) -> str:
        """Human-readable hot-path report for the CLI / debug endpoint."""
        report = self.report(top=top)
        lines = [
            f"sampling profile: {report['attributed']} attributed samples "
            f"over {report['elapsed_seconds']:.2f}s at {report['hz']:g} Hz "
            f"(overhead {report['overhead'] * 100:.2f}%)",
        ]
        for row in report["phases"]:
            bar = "#" * max(1, int(round(row["share"] * 40)))
            lines.append(
                f"  {row['phase']:<24} {row['share'] * 100:6.1f}% "
                f"{row['samples']:>7}  {bar}"
            )
        if report["top_functions"]:
            lines.append("  hottest functions:")
            for row in report["top_functions"]:
                lines.append(
                    f"    {row['function']:<40} {row['share'] * 100:6.1f}% "
                    f"{row['samples']:>7}"
                )
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._samples = 0
            self._phase_counts.clear()
            self._function_counts.clear()
            self._sampler_seconds = 0.0
            self._elapsed = 0.0
            if self._started_at is not None:
                self._started_at = self._clock()
