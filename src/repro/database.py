"""A small persistent database of set-valued relations.

The paper implements its join as an operator over relations stored in a
storage manager; this module provides the surrounding shell a downstream
user needs: a single file holding many named relations (catalog + B-trees),
with set containment joins — planned by the paper's optimizer — running
directly over the stored data.

    from repro.database import SetJoinDatabase

    with SetJoinDatabase.open("courses.db") as db:
        db.create_relation("prereq", prereq_relation)
        db.create_relation("attended", attended_relation)
        print(db.explain("prereq", "attended"))
        pairs, metrics = db.join("prereq", "attended")

``path=None`` gives an in-memory database with identical behaviour.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

from .analysis.timemodel import PAPER_TIME_MODEL, TimeModel
from .core.metrics import JoinMetrics
from .core.modulo import make_partitioner
from .core.operator import SetContainmentJoin, Testbed
from .core.optimizer import JoinPlan, plan_from_statistics
from .core.sets import Relation, SetTuple
from .core.signatures import DEFAULT_SIGNATURE_BITS
from .errors import ConfigurationError
from .storage.buffer import BufferPool
from .storage.catalog import Catalog
from .storage.pager import DiskManager, FileDiskManager, InMemoryDiskManager
from .storage.relation_store import DEFAULT_PAYLOAD_SIZE, RelationStore
from .storage.wal import WALDiskManager, WriteAheadLog

__all__ = ["SetJoinDatabase"]

_STATS_SAMPLE = 200


def resolve_partitioner(db, r_name: str, s_name: str, algorithm: str,
                        num_partitions: "int | None", seed: int):
    """The partitioner a join of two stored relations runs on ``db`` (a
    database or a sharded one): the optimizer's plan for ``"auto"``, else
    the named algorithm at ``num_partitions`` tuned to the stored θ."""
    if algorithm == "auto":
        return db.plan(r_name, s_name).build_partitioner(seed=seed)
    __, theta_r = db._statistics(r_name)
    __, theta_s = db._statistics(s_name, seed=1)
    return make_partitioner(
        algorithm, num_partitions or 32,
        max(theta_r, 1.0), max(theta_s, 1.0), seed,
    )


class SetJoinDatabase:
    """Catalog of named, disk-resident set-valued relations.

    With ``durable=True`` (the default) the disk manager is wrapped in a
    :class:`WALDiskManager`: catalog-changing operations
    (:meth:`create_relation`, :meth:`drop_relation`, and initial catalog
    creation) run as write-ahead-logged transactions, so a crash at any
    point leaves the file openable in either the old or the new state.
    Opening a database replays or rolls back the sidecar ``<path>.wal``
    log automatically.  Temporary join-partition data is deliberately
    *not* logged: it is reconstructible, so crash-in-join costs at most
    leaked pages, never a corrupt catalog.
    """

    def __init__(
        self,
        path: str | None = None,
        page_size: int = 4096,
        buffer_pages: int = 512,
        buffer_policy: str = "lru",
        model: TimeModel = PAPER_TIME_MODEL,
        durable: bool = True,
        disk: DiskManager | None = None,
        wal: WriteAheadLog | None = None,
        model_store=None,
        verify_checksums: bool = True,
    ):
        if disk is None:
            if path is None:
                disk = InMemoryDiskManager(
                    page_size, verify_checksums=verify_checksums)
            else:
                disk = FileDiskManager(
                    path, page_size, verify_checksums=verify_checksums)
        if durable:
            if wal is None and path is not None:
                wal = WriteAheadLog(path + ".wal", disk.page_size)
            # Recovery (replay committed, discard torn) runs here.
            self.disk: DiskManager = WALDiskManager(disk, wal)
        else:
            self.disk = disk
        self.pool = BufferPool(self.disk, capacity=buffer_pages,
                               policy=buffer_policy)
        # ``model_store`` (a path or a ModelStore) plugs the database into
        # the closed calibration loop: planning always uses the store's
        # freshest recalibrated model instead of the static constants.
        self.model_store = None
        if model_store is not None:
            from .obs.adaptive import ModelStore

            self.model_store = (
                model_store if isinstance(model_store, ModelStore)
                else ModelStore(model_store, base_model=model)
            )
            model = self.model_store.active
        self.model = model
        self._closed = False
        if self.disk.num_pages == 0:
            with self._atomic():
                self.catalog = Catalog(self.pool)
        else:
            self.catalog = Catalog(self.pool)

    @classmethod
    def open(cls, path: str | None = None, **kwargs) -> "SetJoinDatabase":
        """Open (creating if needed) a database file, recovering any
        interrupted transaction from its write-ahead log."""
        return cls(path, **kwargs)

    @classmethod
    def open_sharded(cls, path: str | None = None,
                     shards: int | None = None, **kwargs):
        """Open a :class:`~repro.dist.ShardedDatabase`: ``shards``
        independent databases (``<path>.shard<i>`` each with its own
        WAL and buffer pool) behind a coordinator with the same
        create/drop/join/probe/explain surface as a single database.

        An existing sharded layout (``<path>.shards.json`` manifest)
        reopens with ``shards`` omitted; see :mod:`repro.dist`.
        """
        from .dist.coordinator import ShardedDatabase

        return ShardedDatabase.open(path, shards=shards, **kwargs)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    @contextmanager
    def _atomic(self) -> Iterator[None]:
        """Run the enclosed mutations as one crash-atomic transaction.

        Without a WAL disk manager (``durable=False``) this degrades to
        the historical best-effort behaviour: mutate, then flush.
        """
        disk = self.disk
        if not isinstance(disk, WALDiskManager) or disk.in_transaction:
            yield
            self.pool.flush_all()
            return
        disk.begin()
        try:
            yield
            self.pool.flush_all()
            disk.commit()
        except BaseException:
            # Cached frames may hold uncommitted images; drop them before
            # rolling back so nothing dirty can ever be flushed later.
            self.pool.invalidate()
            if disk.in_transaction:
                disk.rollback()
            if not disk.wedged and disk.num_pages:
                # B-tree handles cache their root ids; rebuild the catalog
                # from the durable state.
                self.catalog = Catalog(self.pool)
            raise

    # ------------------------------------------------------------------
    # Relation management
    # ------------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        rows: Relation | Iterable[tuple[int, Iterable[int]]],
        payload_size: int = DEFAULT_PAYLOAD_SIZE,
    ) -> int:
        """Store a new named relation; returns the tuple count.

        ``rows`` is either an in-memory :class:`Relation` or an iterable of
        ``(tid, elements)`` pairs (streamed; never fully materialized).
        """
        self._check_open()
        if name in self.catalog:
            raise ConfigurationError(f"relation {name!r} already exists")
        if isinstance(rows, Relation):
            rows = ((row.tid, row.elements) for row in rows)
        with self._atomic():
            store = RelationStore.create(self.pool, name=name)
            count = store.bulk_load(rows, payload_size)
            self.catalog.register(name, store.meta_page_id, count)
        return count

    def get_store(self, name: str) -> RelationStore:
        """The stored relation's access object."""
        self._check_open()
        entry = self.catalog.lookup(name)
        if entry is None:
            raise ConfigurationError(f"no relation named {name!r}")
        meta_page_id, __ = entry
        return RelationStore(self.pool, meta_page_id, name=name)

    def read_relation(self, name: str) -> Relation:
        """Materialize a stored relation in memory."""
        store = self.get_store(name)
        relation = Relation(name=name)
        for tid, elements, __ in store.scan():
            relation.add(SetTuple(tid, elements))
        return relation

    def drop_relation(self, name: str) -> None:
        """Remove a relation from the catalog and free its pages."""
        self._check_open()
        entry = self.catalog.lookup(name)
        if entry is None:
            raise ConfigurationError(f"no relation named {name!r}")
        meta_page_id, __ = entry
        from .storage.btree import BTree

        with self._atomic():
            BTree(self.pool, meta_page_id).destroy()
            self.catalog.unregister(name)

    def relation_names(self) -> list[str]:
        self._check_open()
        return list(self.catalog.names())

    def relation_size(self, name: str) -> int:
        entry = self.catalog.lookup(name)
        if entry is None:
            raise ConfigurationError(f"no relation named {name!r}")
        return entry[1]

    # ------------------------------------------------------------------
    # Planning and joining
    # ------------------------------------------------------------------

    def _statistics(self, name: str, seed: int = 0) -> tuple[int, float]:
        """(size, sampled average cardinality) for one stored relation."""
        size = self.relation_size(name)
        store = self.get_store(name)
        rng = random.Random(seed)
        cardinalities = []
        for index, (__, elements, __payload) in enumerate(store.scan()):
            if index >= _STATS_SAMPLE * 4:
                break
            if index < _STATS_SAMPLE or rng.random() < 0.25:
                cardinalities.append(len(elements))
        if not cardinalities:
            return size, 0.0
        return size, sum(cardinalities) / len(cardinalities)

    def refresh_model(self) -> TimeModel:
        """Re-adopt the model store's freshest version (no-op without a
        store).  Call after an external recalibration so a long-lived
        session plans with the new constants without reopening."""
        if self.model_store is not None:
            self.model = self.model_store.active
        return self.model

    def plan(self, r_name: str, s_name: str,
             drift_history=None) -> JoinPlan:
        """Run the optimizer over the stored relations' statistics.

        ``drift_history`` (records, a JSONL path, or precomputed
        factors) makes the selection drift-aware — see
        :func:`repro.core.optimizer.plan_from_statistics`.
        """
        self._check_open()
        self.refresh_model()
        r_size, theta_r = self._statistics(r_name)
        s_size, theta_s = self._statistics(s_name, seed=1)
        return plan_from_statistics(
            r_size, s_size, theta_r, theta_s, self.model,
            drift_history=drift_history,
        )

    def explain(self, r_name: str, s_name: str) -> str:
        """EXPLAIN text for the join of two stored relations."""
        return self.plan(r_name, s_name).explain()

    def explain_plan(
        self,
        r_name: str,
        s_name: str,
        algorithm: str = "auto",
        num_partitions: int | None = None,
        signature_bits: int = DEFAULT_SIGNATURE_BITS,
        seed: int = 0,
    ):
        """The annotated predicted plan tree for a join of stored relations.

        Like :meth:`explain` but through the plan inspector
        (:mod:`repro.obs.explain`): the phase tree with the analytical
        x/y/page/time predictions and, for DCJ, the α/β operator tree.
        Returns an :class:`~repro.obs.explain.ExplainReport` (call
        ``.render()`` for text).  Nothing is executed.
        """
        from .obs.explain import build_plan_from_statistics

        self._check_open()
        r_size, theta_r = self._statistics(r_name)
        s_size, theta_s = self._statistics(s_name, seed=1)
        if algorithm == "auto":
            plan = plan_from_statistics(
                r_size, s_size, theta_r, theta_s, self.model
            )
            algorithm, k = plan.algorithm, plan.k
            partitioner = plan.build_partitioner(seed=seed)
        else:
            k = num_partitions or 32
            theta_r = max(theta_r, 1.0)
            theta_s = max(theta_s, 1.0)
            partitioner = make_partitioner(algorithm, k, theta_r, theta_s, seed)
        return build_plan_from_statistics(
            algorithm, k, r_size, s_size, max(theta_r, 1e-9),
            max(theta_s, 1e-9), self.model, partitioner=partitioner,
            signature_bits=signature_bits, page_size=self.disk.page_size,
        )

    def join(
        self,
        r_name: str,
        s_name: str,
        algorithm: str = "auto",
        num_partitions: int | None = None,
        signature_bits: int = DEFAULT_SIGNATURE_BITS,
        seed: int = 0,
        workers: int = 1,
        backend: str = "serial",
        shard_timeout: float | None = None,
        shard_hook=None,
        tracer=None,
        query_id: int | None = None,
        partitioner=None,
    ) -> tuple[set[tuple[int, int]], JoinMetrics]:
        """Set containment join of two stored relations (R ⊆ S side order).

        Runs directly over the stored B-trees; temporary partition data is
        written into the same file and reclaimed afterwards.  ``tracer``
        records a span tree of the run (see :mod:`repro.obs`).

        ``workers``/``backend``/``shard_timeout`` engage the
        partition-parallel engine exactly as on
        :class:`~repro.core.operator.SetContainmentJoin`; the query
        service uses ``shard_timeout`` to propagate per-query deadlines
        down to the shard level and ``shard_hook`` to inject chaos.
        Results are bit-identical at any worker count.

        ``partitioner`` bypasses planning entirely: the given partitioner
        runs as-is with no statistics sampling (the ablation harness uses
        this to pin the physical plan while varying one knob).
        """
        self._check_open()
        if partitioner is None:
            partitioner = resolve_partitioner(
                self, r_name, s_name, algorithm, num_partitions, seed
            )
        testbed = Testbed.from_components(
            self.disk, self.pool, self.get_store(r_name), self.get_store(s_name)
        )
        join = SetContainmentJoin(
            testbed, partitioner, signature_bits=signature_bits,
            workers=workers, parallel_backend=backend,
            shard_timeout=shard_timeout, shard_hook=shard_hook,
            tracer=tracer, query_id=query_id,
        )
        pairs, metrics = join.run(cold_cache=False)
        # Publish to the process registry so long-lived sessions (and the
        # /metrics endpoint) accumulate join latency/work series.
        from .obs.registry import record_join

        record_join(metrics)
        return pairs, metrics

    def probe(self, name: str, elements: Iterable[int]) -> list[int]:
        """Point containment probe: tids of stored sets ⊇ ``elements``.

        The service's cheap read-only query class — a single scan of one
        relation, no partitioning, no temporary pages.  An empty probe
        set matches every tuple (∅ ⊆ anything), mirroring the join's
        containment semantics.
        """
        self._check_open()
        query = np.array(list(frozenset(elements)))
        matches: list[int] = []
        for tids, stored, offsets in self.get_store(name).scan_batches():
            if query.size:
                # Stored sets hold no duplicates, so a tuple contains the
                # query exactly when it holds len(query) of its elements.
                hits = np.concatenate(([0], np.cumsum(np.isin(stored, query))))
                tids = tids[hits[offsets[1:]] - hits[offsets[:-1]] == query.size]
            matches += tids.tolist()
        return matches

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Storage-layer statistics for the ``db ... stats`` CLI action.

        Everything is read from live counters — no I/O happens beyond
        catalog lookups that are already cached.
        """
        self._check_open()
        pool_stats = self.pool.stats
        names = self.relation_names()
        out = {
            "relations": len(names),
            "tuples": sum(self.relation_size(name) for name in names),
            "pages": self.disk.num_pages,
            "page_size": self.disk.page_size,
            "page_reads": self.disk.stats.page_reads,
            "page_writes": self.disk.stats.page_writes,
            "buffer_capacity": self.pool.capacity,
            "buffer_pages_cached": len(self.pool),
            "buffer_hits": pool_stats.hits,
            "buffer_misses": pool_stats.misses,
            "buffer_hit_rate": pool_stats.hit_rate,
            "buffer_evictions": pool_stats.evictions,
            "buffer_dirty_writebacks": pool_stats.dirty_writebacks,
        }
        if isinstance(self.disk, WALDiskManager) and self.disk.wal is not None:
            out["wal_bytes"] = self.disk.wal.size_bytes
        from .obs.registry import get_registry

        latency = get_registry().get("setjoin_join_seconds")
        if latency is not None and latency.count:
            out["joins_recorded"] = latency.count
            out["join_latency_p50"] = latency.percentile(0.50)
            out["join_latency_p95"] = latency.percentile(0.95)
            out["join_latency_p99"] = latency.percentile(0.99)
        return out

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def verify_integrity(self) -> dict[str, int]:
        """Read every catalog-reachable page, verifying page checksums.

        Raises :class:`~repro.errors.CorruptPageError` (or another
        :class:`~repro.errors.StorageError`) on the first damaged page;
        returns counters describing what was checked otherwise.
        """
        self._check_open()
        # Cached frames were checksummed when first read; drop them so
        # every page comes off the disk and through the CRC again.
        self.pool.flush_all()
        self.pool.drop_all()
        before = self.disk.stats.snapshot()
        relations = 0
        tuples = 0
        for name in self.relation_names():
            relations += 1
            for __ in self.get_store(name).scan():
                tuples += 1
        delta = self.disk.stats.delta(before)
        return {
            "relations": relations,
            "tuples": tuples,
            "pages_read": delta.page_reads,
        }

    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("database is closed")

    def close(self) -> None:
        if not self._closed:
            self.pool.flush_all()
            self.disk.close()
            self._closed = True

    def kill(self) -> None:
        """Abandon the database without flushing: simulates a crash.

        Dirty buffer-pool frames are dropped and file handles are closed
        without syncing.  Used by the fault-injection harness; production
        code should call :meth:`close`.
        """
        if not self._closed:
            self.pool.invalidate()
            self.disk.kill()
            self._closed = True

    def __enter__(self) -> "SetJoinDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
