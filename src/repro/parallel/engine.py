"""Orchestration: shard, dispatch, merge — for one joining phase.

:func:`run_parallel_join` is called by
``SetContainmentJoin._parallel_join_phase`` between the (serial)
partitioning and verification phases.  It

1. reads the per-partition entry counts the partitioning phase already
   produced and builds LPT-balanced shards (:mod:`.scheduler`),
2. describes each shard as a self-contained :class:`~.worker.ShardSpec`
   — file-backed testbeds are described by path + meta page ids so each
   worker reopens its own read-only storage view; memory-backed
   testbeds (and memory-resident partitions) ship their entries inline,
3. runs :func:`~.worker.run_shard` over the specs on the configured
   backend (:mod:`.executor`), falling back to serial execution when the
   backend cannot start here, and stamps the backend that ran on the
   joining phase's span,
4. folds the results through :func:`~.merge.merge_results`.

Worker failures are raised as
:class:`~repro.errors.ParallelExecutionError`; the operator's existing
failure path then drops the temporary partition stores, so an aborted
parallel join leaves no orphaned spill pages behind.
"""

from __future__ import annotations

import os

from ..core.metrics import JoinMetrics
from ..storage.pager import FileDiskManager
from .executor import resolve_backend
from .merge import merge_results
from .scheduler import build_shards
from .worker import FileSource, ShardSpec, run_shard

__all__ = ["run_parallel_join"]


def run_parallel_join(
    join, parts_r, parts_s
) -> tuple[list[tuple[int, int]], JoinMetrics]:
    """Run the joining phase of ``join`` across its configured workers.

    Returns ``(pairs, worker_metrics)``: the deduplicated candidate
    pairs sorted by tid, and the workers' aggregated metric shares
    (signature comparisons, worker-side page I/O, summed worker
    seconds).  Raises :class:`ParallelExecutionError` if any worker
    fails or times out.
    """
    k = join.partitioner.num_partitions
    r_sizes = [
        join._partition_size(parts_r, join._resident_r, p) for p in range(k)
    ]
    s_sizes = [
        join._partition_size(parts_s, join._resident_s, p) for p in range(k)
    ]
    header = JoinMetrics(
        algorithm=join.partitioner.name,
        num_partitions=k,
        r_size=len(join.testbed.relation_r),
        s_size=len(join.testbed.relation_s),
        signature_bits=join.signature_bits,
    )

    shards = build_shards(r_sizes, s_sizes, join.workers)
    if not shards:
        return [], header

    backend, fallback = resolve_backend(join.parallel_backend, len(shards))
    tracer = join._run_tracer
    phase_span = tracer.current
    if tracer.enabled:
        phase_span.set(backend=backend.name)
        if fallback is not None:
            phase_span.set(fallback=fallback)
    file_source = _describe_file_source(join, parts_r, parts_s)
    # Only process workers snapshot-and-ship registry deltas: serial and
    # thread workers share the parent's registry, so their increments
    # are already here and a merged delta would double-count.
    collect_metrics = backend.name == "process"
    # A traced shard stamps the run's tracer tags (a served query's id)
    # on its own root span, whichever process it runs in.
    trace = dict(tracer.tags) if tracer.enabled else None
    specs = [
        _build_spec(join, parts_r, parts_s, shard, file_source,
                    collect_metrics, trace)
        for shard in shards
    ]
    # The chaos hook (see repro.service.chaos) gets one look at every
    # spec before dispatch; it may arm delays, I/O faults, or kills.
    execution = join.execution
    if execution.hook is not None:
        for spec in specs:
            execution.hook(spec)
    results = backend.run(run_shard, specs, timeout=execution.timeout)
    # Each shard span is annotated with the scheduler's predicted
    # comparison count (exact under block nested loop: Σ |R_p|·|S_p|)
    # so EXPLAIN ANALYZE can show per-shard predicted-vs-observed skew.
    for shard, result in zip(shards, results):
        for record in result.spans:
            if record["name"] == "shard":
                record["attrs"].update(
                    predicted_comparisons=sum(
                        r_sizes[p] * s_sizes[p] for p in shard.partitions
                    ),
                    scheduled_cost=shard.cost,
                )
    return merge_results(results, header, tracer, parent=phase_span)


def _describe_file_source(join, parts_r, parts_s) -> FileSource | None:
    """A file-backed testbed is described by reference, not by value."""
    disk = join.testbed.disk
    if not isinstance(disk, FileDiskManager):
        return None
    # The partitioning phase flushed the pool after sealing the stores,
    # and the joining phase performs no writes, so the on-disk image the
    # workers reopen is complete and stable.  Flush down to the OS as
    # well: workers read through their own file descriptors, which do
    # not see bytes still sitting in the parent's userspace file buffer.
    join.testbed.pool.flush_all()
    disk.flush()
    return FileSource(
        path=disk.path,
        page_size=disk.page_size,
        buffer_pages=join.testbed.pool.capacity,
        buffer_policy=join.testbed.pool.policy,
        r_meta_page=parts_r.meta_page_id,
        s_meta_page=parts_s.meta_page_id,
    )


def _build_spec(join, parts_r, parts_s, shard, file_source,
                collect_metrics, trace) -> ShardSpec:
    inline_r: dict[int, bytes] = {}
    inline_s: dict[int, bytes] = {}
    resident = join.resident_partitions
    for partition in shard.partitions:
        if partition < resident:
            # Memory-resident partitions exist only in the parent's
            # lists — ship them by value regardless of the source.
            inline_r[partition] = bytes(join._resident_r[partition])
            inline_s[partition] = bytes(join._resident_s[partition])
        elif file_source is None:
            inline_r[partition] = b"".join(
                parts_r.scan_partition_records(partition)
            )
            inline_s[partition] = b"".join(
                parts_s.scan_partition_records(partition)
            )
    return ShardSpec(
        partitions=list(shard.partitions),
        signature_bits=join.signature_bits,
        file_source=file_source,
        inline_r=inline_r,
        inline_s=inline_s,
        parent_pid=os.getpid(),
        index=shard.index,
        trace=trace,
        collect_metrics=collect_metrics,
    )
