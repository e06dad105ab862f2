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
worker's own disk manager (file source only).  The resulting
``InjectedIOError`` is reported through :attr:`ShardResult.error` rather
than raised, so a dying worker never surfaces as an opaque
``BrokenProcessPool`` in the parent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["FileSource", "ShardSpec", "ShardResult", "run_shard"]


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
    engine: str
    signature_bits: int
    block_entries: int
    batch_portions: int
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
    #: build a span tree in the worker and ship it back in the result.
    trace: bool = False
    #: snapshot the worker's metrics-registry delta into the result.
    #: The engine sets this for the *process* backend only: serial and
    #: thread workers share the parent's registry (their increments land
    #: directly), so shipping a delta too would double-count.
    collect_metrics: bool = False
    #: the service-level query this shard serves, stamped on the shard
    #: span so cross-process traces stitch back to one query tree.
    query_id: int | None = None


@dataclass
class ShardResult:
    """One worker's output: candidate pairs plus its share of the metrics."""

    pairs: list[tuple[int, int]] = field(default_factory=list)
    signature_comparisons: int = 0
    page_reads: int = 0
    page_writes: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    seconds: float = 0.0
    partitions: int = 0
    index: int = 0
    #: the worker's serialized span tree (plain dicts from
    #: :meth:`repro.obs.trace.Tracer.export`); empty when tracing is off.
    #: The parent stitches these under its joining-phase span.
    spans: list[dict] = field(default_factory=list)
    #: the worker's metrics-registry delta (plain dicts from
    #: :meth:`repro.obs.registry.MetricsRegistry.delta`); populated only
    #: when the spec asked for it.  The engine merges these into the
    #: parent registry, so ``/metrics`` totals are identical across
    #: serial, thread and process backends.
    registry_delta: dict = field(default_factory=dict)
    #: set instead of raising so the failure crosses process boundaries
    #: as data; the executor re-raises it as ParallelExecutionError.
    error: str | None = None
    error_type: str | None = None


def run_shard(spec: ShardSpec) -> ShardResult:
    """Join every partition pair of one shard; never raises.

    Any failure — injected I/O fault, corrupt page, bad spec — is
    captured into the result so it survives pickling back to the parent
    regardless of backend.
    """
    from ..core.operator import join_partition
    from ..obs.registry import get_registry
    from ..obs.trace import NULL_TRACER, Tracer, current_tracer, use_tracer

    result = ShardResult(partitions=len(spec.partitions), index=spec.index)
    registry = get_registry()
    # Process workers inherit a copy of the parent's registry (fork) or a
    # fresh one (spawn); baselining before any work makes the shipped
    # delta exactly this shard's contribution either way.
    baseline = registry.snapshot() if spec.collect_metrics else None
    started = time.perf_counter()
    disk = None
    pool = None
    if not spec.trace:
        tracer = NULL_TRACER
    else:
        # In-process backends (serial/thread) still see the parent's
        # ambient tracer: share its clocks so worker spans land on the
        # parent timeline and stay deterministic under injected clocks.
        # In a forked/spawned process the ambient tracer is the no-op
        # default and the worker falls back to real clocks.
        ambient = current_tracer()
        tracer = ambient.child() if isinstance(ambient, Tracer) else Tracer()
    span_attrs = {"index": spec.index, "partitions": len(spec.partitions)}
    if spec.query_id is not None:
        span_attrs["query_id"] = spec.query_id
    shard_span = tracer.start("shard", **span_attrs)
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
            pairs: set[tuple[int, int]] = set()
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
                        spec.engine, spec.signature_bits, spec.block_entries,
                        spec.batch_portions, r_side, s_side, partition,
                        lambda r_tid, s_tid: pairs.add((r_tid, s_tid)),
                    )
                    result.signature_comparisons += comparisons
                    partition_span.set(comparisons=comparisons)
            result.pairs = sorted(pairs)
    except Exception as error:  # noqa: BLE001 — shipped to the parent as data
        result.error = str(error)
        result.error_type = type(error).__name__
        shard_span.set(error=str(error))
    finally:
        if pool is not None:
            result.buffer_hits = pool.stats.hits
            result.buffer_misses = pool.stats.misses
        if disk is not None:
            result.page_reads = disk.stats.page_reads
            result.page_writes = disk.stats.page_writes
            try:
                disk.close()
            except Exception:  # noqa: BLE001 — injected faults may outlive the job
                pass
    result.seconds = time.perf_counter() - started
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
    ).inc(result.partitions)
    registry.counter(
        "setjoin_worker_comparisons_total",
        "Signature comparisons performed inside join workers",
    ).inc(result.signature_comparisons)
    registry.counter(
        "setjoin_worker_seconds_total",
        "Wall-clock seconds spent inside join workers",
    ).inc(result.seconds)
    if baseline is not None:
        result.registry_delta = registry.delta(baseline)
    shard_span.set(
        pairs=len(result.pairs),
        comparisons=result.signature_comparisons,
        page_reads=result.page_reads,
        buffer_hits=result.buffer_hits,
        buffer_misses=result.buffer_misses,
    )
    tracer.finish(shard_span)
    result.spans = tracer.export()
    return result


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
