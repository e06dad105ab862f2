"""The per-shard join kernel executed by every backend.

A shard is a self-contained job description (:class:`ShardSpec`) plus a
pure function over it (:func:`run_shard`) — no closures, no shared
state — so the same code runs in-process (serial backend), on a thread,
or in a forked/spawned worker process.

Partition data reaches a worker one of two ways:

* **File source** — the testbed is file-backed, so the worker opens its
  *own* read-only :class:`~repro.storage.pager.FileDiskManager` and
  :class:`~repro.storage.buffer.BufferPool` over the testbed file and
  attaches :class:`~repro.storage.partition_store.PartitionStore` views
  at the sealed stores' meta pages.  Nothing mutable is shared between
  workers or with the parent; each worker's buffer pool keeps its shard
  of partition pages cache-resident, which is the locality argument for
  partition-parallel containment joins in the first place.
* **Inline entries** — the testbed is memory-backed (no file to reopen)
  or a partition is memory-resident, so its ``(signature, tid)`` entries
  are shipped in the spec, as one run of bytes in the partition stores'
  entry format.  The parent's page reads for materializing them are
  counted in the parent's joining-phase I/O.

The joining loop itself — blocking and comparison — is the serial
operator's, :func:`repro.core.operator.join_partition`, so a shard
performs bit-for-bit the same signature comparisons the serial loop
would for its partitions.

Fault injection: ``ShardSpec.fail_after`` arms a
:class:`~repro.storage.faults.FaultInjectingDiskManager` around the
worker's own disk manager (file source only).  Whatever a shard raises is
re-raised as a :class:`~repro.errors.ParallelExecutionError` naming the
shard and the original error class, a type that pickles intact across
the process boundary whatever the original error was.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.metrics import JoinMetrics
from ..errors import ParallelExecutionError
from .merge import ShardResult

__all__ = ["FileSource", "ShardSpec", "run_shard"]


@dataclass(frozen=True)
class FileSource:
    """Where and how to reopen the testbed file for read-only scanning."""

    path: str
    page_size: int
    buffer_pages: int
    buffer_policy: str
    r_meta_page: int
    s_meta_page: int


@dataclass
class ShardSpec:
    """Everything one worker needs to join its partition pairs.

    Plain data only (ints, strings, bytes, lists, dicts) so the spec
    pickles cleanly across process boundaries under any start method.
    """

    partitions: list[int]
    signature_bits: int
    file_source: FileSource | None = None
    #: partition -> its entry run (fixed-width signature + tid records,
    #: see repro.storage.serialization), for partitions not readable via
    #: file_source (memory-backed testbeds and memory-resident partitions).
    inline_r: dict[int, bytes] = field(default_factory=dict)
    inline_s: dict[int, bytes] = field(default_factory=dict)
    #: test hook: fail the worker's disk manager after N physical I/Os.
    fail_after: int | None = None
    #: chaos: sleep this long before joining (a "slow shard"; with a
    #: shard timeout armed this is how timeouts are provoked on demand).
    chaos_delay: float = 0.0
    #: chaos: die mid-shard.  In a worker *process* this is a hard
    #: ``os._exit`` (the parent sees a broken pool, exactly like an OOM
    #: kill); in the parent process (serial/thread backends) it raises
    #: :class:`~repro.storage.faults.SimulatedWorkerDeath` instead.
    chaos_kill: bool = False
    #: pid of the dispatching process, so ``chaos_kill`` can tell a real
    #: worker process from an in-process (serial/thread) shard.
    parent_pid: int = 0
    #: this shard's index in the schedule (labels spans and results).
    index: int = 0
    #: the run's tracer tags (a served query's ``query_id``) to stamp on
    #: the span tree shipped back in the result; ``None``: untraced.
    trace: "dict | None" = None
    #: snapshot the worker's metrics-registry delta into the result.
    #: The engine sets this for the *process* backend only: serial and
    #: thread workers share the parent's registry (their increments land
    #: directly), so shipping a delta too would double-count.
    collect_metrics: bool = False


def run_shard(spec: ShardSpec) -> ShardResult:
    """Join every partition pair of one shard.

    Any failure — injected I/O fault, corrupt page, bad spec — is
    re-raised as :class:`ParallelExecutionError` naming the shard, after
    the worker's storage view is closed and its counters are published.
    """
    from ..core.operator import join_partition
    from ..obs.registry import get_registry
    from ..obs.trace import NULL_TRACER, Tracer, current_tracer, use_tracer

    metrics = JoinMetrics()
    registry = get_registry()
    # Process workers inherit a copy of the parent's registry (fork) or a
    # fresh one (spawn); baselining before any work makes the shipped
    # delta exactly this shard's contribution either way.
    baseline = registry.snapshot() if spec.collect_metrics else None
    started = time.perf_counter()
    disk = None
    pool = None
    failure = None
    pairs: set[tuple[int, int]] = set()
    if spec.trace is None:
        tracer = NULL_TRACER
    else:
        # In-process backends (serial/thread) still see the parent's
        # ambient tracer: share its clocks so worker spans land on the
        # parent timeline and stay deterministic under injected clocks.
        # In a forked/spawned process the ambient tracer is the no-op
        # default and the worker falls back to real clocks.
        ambient = current_tracer()
        tracer = (
            ambient.child(tags=spec.trace) if isinstance(ambient, Tracer)
            else Tracer(tags=spec.trace)
        )
    shard_span = tracer.start(
        "shard", index=spec.index, partitions=len(spec.partitions)
    )
    try:
        with use_tracer(tracer):
            if spec.chaos_delay > 0:
                time.sleep(spec.chaos_delay)
            if spec.chaos_kill:
                _chaos_die(spec)
            parts_r = parts_s = None
            if spec.file_source is not None:
                disk, pool = _open_file_source(spec)
                parts_r, parts_s = _attach_stores(spec, pool)
            for partition in spec.partitions:
                r_side = spec.inline_r.get(partition, parts_r)
                s_side = spec.inline_s.get(partition, parts_s)
                if r_side is None or s_side is None:
                    raise ValueError(
                        f"partition {partition} has neither a file source nor "
                        "inline entries"
                    )
                with tracer.span(
                    "join.partition", partition=partition
                ) as partition_span:
                    comparisons = join_partition(
                        spec.signature_bits, r_side, s_side, partition,
                        lambda r_tid, s_tid: pairs.add((r_tid, s_tid)),
                    )
                    metrics.signature_comparisons += comparisons
                    partition_span.set(comparisons=comparisons)
    except Exception as error:  # noqa: BLE001 — re-raised below, typed
        failure = error
    finally:
        if pool is not None:
            metrics.buffer_hits = pool.stats.hits
            metrics.buffer_misses = pool.stats.misses
        if disk is not None:
            metrics.joining.page_reads = disk.stats.page_reads
            metrics.joining.page_writes = disk.stats.page_writes
            try:
                disk.close()
            except Exception:  # noqa: BLE001 — injected faults may outlive the job
                pass
    metrics.joining.seconds = time.perf_counter() - started
    metrics.candidates = len(pairs)
    # Worker-side registry accounting goes through the ambient registry:
    # serial/thread workers increment the parent's metrics directly,
    # process workers increment their own copy and ship the delta below —
    # so the parent's totals come out backend-identical.
    registry.counter(
        "setjoin_worker_shards_total", "Shards executed by join workers"
    ).inc()
    registry.counter(
        "setjoin_worker_partitions_total",
        "Partition pairs joined by join workers",
    ).inc(len(spec.partitions))
    registry.counter(
        "setjoin_worker_comparisons_total",
        "Signature comparisons performed inside join workers",
    ).inc(metrics.signature_comparisons)
    registry.counter(
        "setjoin_worker_seconds_total",
        "Wall-clock seconds spent inside join workers",
    ).inc(metrics.joining.seconds)
    if failure is not None:
        raise ParallelExecutionError(
            f"join worker for shard {spec.index} (partitions "
            f"{spec.partitions}) failed with {type(failure).__name__}: "
            f"{failure}"
        ) from failure
    shard_span.set(
        pairs=len(pairs),
        comparisons=metrics.signature_comparisons,
        page_reads=metrics.joining.page_reads,
        buffer_hits=metrics.buffer_hits,
        buffer_misses=metrics.buffer_misses,
    )
    tracer.finish(shard_span)
    return ShardResult(
        index=spec.index,
        pairs=sorted(pairs),
        metrics=metrics,
        spans=tracer.export(),
        registry_delta=(
            registry.delta(baseline) if baseline is not None else {}
        ),
    )


def _chaos_die(spec: ShardSpec) -> None:
    """Kill this worker, the way the chaos layer asked for.

    Only a genuine worker *process* (pid differs from the dispatcher's)
    hard-exits; an in-process shard raises a typed error instead, so the
    serial and thread backends survive their own chaos.
    """
    import os

    from ..storage.faults import SimulatedWorkerDeath

    if spec.parent_pid and os.getpid() != spec.parent_pid:
        os._exit(86)  # noqa: SLF001 — a chaos kill must skip all cleanup
    raise SimulatedWorkerDeath(
        f"chaos killed the worker for shard {spec.index} "
        "(simulated in-process: serial/thread backend)"
    )


def _open_file_source(spec: ShardSpec):
    """Open this worker's private read-only storage view."""
    from ..storage.buffer import BufferPool
    from ..storage.pager import FileDiskManager

    source = spec.file_source
    disk = FileDiskManager(source.path, source.page_size, fsync=False)
    if spec.fail_after is not None:
        from ..storage.faults import FaultInjectingDiskManager

        disk = FaultInjectingDiskManager(disk).fail_after(spec.fail_after)
    pool = BufferPool(
        disk, capacity=source.buffer_pages, policy=source.buffer_policy
    )
    return disk, pool


def _attach_stores(spec: ShardSpec, pool):
    from ..storage.partition_store import PartitionStore

    signature_bytes = (spec.signature_bits + 7) // 8
    num_partitions = max(spec.partitions) + 1 if spec.partitions else 1
    parts_r = PartitionStore.attach(
        pool, spec.file_source.r_meta_page, signature_bytes, num_partitions
    )
    parts_s = PartitionStore.attach(
        pool, spec.file_source.s_meta_page, signature_bytes, num_partitions
    )
    return parts_r, parts_s
