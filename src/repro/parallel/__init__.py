"""Partition-parallel execution engine.

The DCJ/PSJ/LSJ partitioning algorithms reduce ``R ⋈⊆ S`` to independent
work over partition pairs ``R_p ⋈ S_p`` — exactly the shared-nothing
structure that parallelizes with near-optimal load when shards are
balanced by size (Ketsman, Suciu & Tao) and stays cache-resident per
worker (Bouros et al.).  This package runs the operator's joining phase
across a pool of workers while preserving the paper's measurement
semantics bit for bit:

* :mod:`~repro.parallel.scheduler` turns the partitioner's assignments
  into shards using largest-partition-first (LPT) load balancing with an
  estimated-cost model (|R_p|·|S_p| signature comparisons per pair).
* :mod:`~repro.parallel.executor` provides three interchangeable
  backends behind one interface — ``serial`` (in-process, the default),
  ``thread`` and ``process`` — with batch timeouts and a clean fallback
  to ``serial`` when a backend is unavailable.  It is the one fan-out
  of the package: :mod:`repro.dist` runs its shard joins through it too.
* :mod:`~repro.parallel.worker` is the per-shard join kernel.  A process
  worker opens its *own* read-only ``FileDiskManager``/``BufferPool``
  view of the partition stores (nothing mutable is shared); when the
  testbed is memory-backed, the shard's partition entries are shipped
  to the worker instead.
* :mod:`~repro.parallel.merge` holds the one result type and the one
  merge of partition workers and database shards alike: pairs sorted by
  tid (so output is identical for any worker count), per-shard
  :class:`~repro.core.metrics.JoinMetrics` shares via
  ``JoinMetrics.merge``, registry deltas and span trees.
* :mod:`~repro.parallel.engine` orchestrates the above for
  :class:`~repro.core.operator.SetContainmentJoin`.

Entry points: ``run_disk_join(..., workers=4, backend="process")``,
``SetContainmentJoin(..., workers=, parallel_backend=, execution=)``, or
the CLI's ``join --workers N --parallel-backend process``.
"""

from .engine import run_parallel_join
from .executor import (
    BACKENDS,
    Execution,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from .merge import ShardResult, merge_results
from .scheduler import PartitionTask, Shard, build_shards, estimate_pair_cost
from .worker import FileSource, ShardSpec, run_shard

__all__ = [
    "BACKENDS",
    "Execution",
    "ExecutionBackend",
    "FileSource",
    "PartitionTask",
    "ProcessBackend",
    "SerialBackend",
    "Shard",
    "ShardResult",
    "ShardSpec",
    "ThreadBackend",
    "build_shards",
    "estimate_pair_cost",
    "merge_results",
    "resolve_backend",
    "run_parallel_join",
    "run_shard",
]
