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
        print(db.explain("prereq", "attended"))   # the plan join runs
        pairs, metrics = db.join("prereq", "attended")

``path=None`` gives an in-memory database with identical behaviour.
"""

from __future__ import annotations

import operator
import random
from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

from .analysis.timemodel import PAPER_TIME_MODEL, TimeModel
from .core.metrics import JoinMetrics
from .core.operator import SetContainmentJoin, Testbed
from .core.optimizer import JoinPlan, resolve_plan
from .core.sets import Relation
from .core.signatures import DEFAULT_SIGNATURE_BITS
from .errors import ConfigurationError, StorageError
from .parallel.executor import Execution
from .storage.buffer import BufferPool
from .storage.catalog import Catalog
from .storage.btree import BTree
from .storage.pager import DiskManager, FileDiskManager, InMemoryDiskManager
from .storage.posting_index import PostingIndex
from .storage.relation_store import DEFAULT_PAYLOAD_SIZE, RelationStore
from .storage.wal import WALDiskManager, WriteAheadLog

__all__ = ["SetJoinDatabase"]

_STATS_SAMPLE = 200


class JoinPlanner:
    """The planning half :class:`SetJoinDatabase` and
    :class:`~repro.dist.ShardedDatabase` share: a cost model, optionally
    re-adopted from a model store, each relation's statistics, read once by
    the database's ``_read_statistics(name, seed)``, and the one plan."""

    def __init__(self, model: TimeModel, model_store) -> None:
        #: name → seed → statistics; forgotten on create, drop, reshard.
        self._statistics_memo: "dict[str, dict[int, tuple[int, float]]]" = {}
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

    def _statistics(self, name: str, seed: int = 0) -> tuple[int, float]:
        """(size, mean cardinality) of one stored relation, read once."""
        memo = self._statistics_memo.setdefault(name, {})
        if seed not in memo:
            memo[seed] = self._read_statistics(name, seed)
        return memo[seed]

    def refresh_model(self) -> TimeModel:
        """Re-adopt the model store's freshest version (no-op without a
        store).  Call after an external recalibration so a long-lived
        session plans with the new constants without reopening."""
        if self.model_store is not None:
            self.model = self.model_store.active
        return self.model

    def plan(
        self,
        r_name: str,
        s_name: str,
        algorithm: str = "auto",
        num_partitions: int | None = None,
        cache=None,
    ) -> JoinPlan:
        """The one plan of a join of two stored relations
        (:func:`~repro.core.optimizer.resolve_plan` over their statistics,
        priced by the model store's freshest model): what ``join`` runs
        and ``explain`` renders.  A ``cache`` (the service's
        :class:`~repro.service.core.PlanCache`) is keyed on everything
        the plan depends on, statistics and model included."""
        self._check_open()
        model = self.refresh_model()
        r_size, theta_r = self._statistics(r_name)
        s_size, theta_s = self._statistics(s_name, seed=1)
        key = (
            r_name, s_name, algorithm, num_partitions, r_size,
            round(theta_r, 9), s_size, round(theta_s, 9),
            model.c1, model.c2, model.c3,
        )
        plan = cache.lookup(key) if cache is not None else None
        if plan is None:
            plan = resolve_plan(
                algorithm, num_partitions, r_size, theta_r, s_size, theta_s,
                model,
            )
            if cache is not None:
                cache.store(key, plan)
        return plan


class SetJoinDatabase(JoinPlanner):
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
        super().__init__(model, model_store)
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

        ``rows`` is a :class:`Relation` or the ``(tid, elements)`` pairs,
        in any tid order, its constructor reads and checks before anything
        is written.  The relation's posting index
        (:mod:`repro.storage.posting_index`) is built from the stored
        tuples in the same transaction, so a crash leaves both or neither.
        """
        self._check_open()
        if name in self.catalog:
            raise ConfigurationError(f"relation {name!r} already exists")
        self._statistics_memo.pop(name, None)
        relation = rows if isinstance(rows, Relation) else Relation(rows, name)
        with self._atomic():
            store = RelationStore.create(self.pool, relation, payload_size, name)
            count = len(store)
            index = PostingIndex.build(self.pool, store)
            self.catalog.register(
                name, store.meta_page_id, count,
                None if index is None else index.meta_page_id,
            )
        return count

    def _entry(self, name: str) -> tuple[int, int, int | None]:
        """The catalog entry of ``name``: relation meta page, tuple count,
        posting-index meta page (``None`` without an index)."""
        entry = self.catalog.lookup(name)
        if entry is None:
            raise ConfigurationError(f"no relation named {name!r}")
        return entry

    def get_store(self, name: str) -> RelationStore:
        """The stored relation's access object, sized by the catalog."""
        self._check_open()
        meta_page_id, size, __ = self._entry(name)
        return RelationStore(self.pool, meta_page_id, name=name, size=size)

    def read_relation(self, name: str) -> Relation:
        """Materialize a stored relation in memory."""
        return Relation(
            ((tid, elements) for tid, elements, __ in self.get_store(name).scan()),
            name,
        )

    def drop_relation(self, name: str) -> None:
        """Remove a relation from the catalog and free its pages and its
        posting index's, in one transaction."""
        self._check_open()
        meta_page_id, __, index_page_id = self._entry(name)
        self._statistics_memo.pop(name, None)
        with self._atomic():
            BTree(self.pool, meta_page_id).destroy()
            if index_page_id is not None:
                BTree(self.pool, index_page_id).destroy()
            self.catalog.unregister(name)

    def relation_names(self) -> list[str]:
        self._check_open()
        return list(self.catalog.names())

    def relation_size(self, name: str) -> int:
        return self._entry(name)[1]

    # ------------------------------------------------------------------
    # Planning and joining
    # ------------------------------------------------------------------

    def _read_statistics(self, name: str, seed: int = 0) -> tuple[int, float]:
        """(size, sampled average cardinality) for one stored relation.

        The sample is the first :data:`_STATS_SAMPLE` tuples in tid order
        plus each of the next ``3 ×`` :data:`_STATS_SAMPLE` with
        probability 1/4, one ``random.Random(seed)`` draw per tuple, read
        as cardinality arrays from :meth:`RelationStore.scan_batches`.
        """
        size = self.relation_size(name)
        limit = _STATS_SAMPLE * 4
        cardinalities = []
        for __, __, offsets in self.get_store(name).scan_batches():
            cardinalities.append(np.diff(offsets))
            if sum(map(len, cardinalities)) >= limit:
                break
        if not cardinalities:
            return size, 0.0
        head = np.concatenate(cardinalities)[:limit]
        rng = random.Random(seed)
        draws = [rng.random() for __ in head[_STATS_SAMPLE:]]
        sample = np.concatenate(
            (head[:_STATS_SAMPLE], head[_STATS_SAMPLE:][np.less(draws, 0.25)])
        )
        return size, int(sample.sum()) / sample.size

    def explain(
        self,
        r_name: str,
        s_name: str,
        algorithm: str = "auto",
        num_partitions: int | None = None,
        signature_bits: int = DEFAULT_SIGNATURE_BITS,
        seed: int = 0,
    ):
        """EXPLAIN a join of stored relations: the
        :class:`~repro.obs.explain.ExplainReport` of :meth:`plan` — the
        phase tree with the analytical x/y/page/time predictions, for DCJ
        the α/β operator tree, and for ``"auto"`` the optimizer's
        decision.  ``str()`` renders it.  Nothing is executed."""
        return self.plan(r_name, s_name, algorithm, num_partitions).explain(
            seed=seed, signature_bits=signature_bits,
            page_size=self.disk.page_size,
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
        execution: Execution = Execution(),
        tracer=None,
        partitioner=None,
    ) -> tuple[set[tuple[int, int]], JoinMetrics]:
        """Set containment join of two stored relations (R ⊆ S side order).

        Runs directly over the stored B-trees; temporary partition data is
        written into the same file and reclaimed afterwards.  ``tracer``
        records a span tree of the run (see :mod:`repro.obs`).

        ``workers``/``backend``/``execution`` engage the
        partition-parallel engine exactly as on
        :class:`~repro.core.operator.SetContainmentJoin`; the query
        service's :class:`~repro.parallel.executor.Execution` carries a
        query's remaining deadline and its chaos hook down to the
        workers.  Results are bit-identical at any worker count.

        ``partitioner`` bypasses planning entirely: the given partitioner
        runs as-is with no statistics sampling (the
        ``ablation-components`` experiment uses this to pin the physical
        plan while varying one knob).
        """
        self._check_open()
        if partitioner is None:
            partitioner = self.plan(
                r_name, s_name, algorithm, num_partitions
            ).build_partitioner(seed)
        testbed = Testbed.from_components(
            self.disk, self.pool, self.get_store(r_name), self.get_store(s_name)
        )
        join = SetContainmentJoin(
            testbed, partitioner, signature_bits=signature_bits,
            workers=workers, parallel_backend=backend,
            execution=execution, tracer=tracer,
        )
        pairs, metrics = join.run(cold_cache=False)
        # Publish to the process registry so long-lived sessions (and the
        # /metrics endpoint) accumulate join latency/work series.
        from .obs.registry import record_join

        record_join(metrics)
        return pairs, metrics

    def probe(self, name: str, elements: Iterable[int]) -> list[int]:
        """Point containment probe: tids of stored sets ⊇ ``elements``, in
        tid order.

        The service's cheap read-only query class.  It reads the query
        elements' lists from the relation's posting index and intersects
        them rarest first (:meth:`PostingIndex.probe`), so its cost
        follows the query's lists, not the relation.  The relation is
        scanned instead — each tuple's query hits counted — for an empty
        probe, which matches every tuple (∅ ⊆ anything, the join's
        containment semantics), and for a relation without an index: one
        stored before indexes existed, or one holding a tid or element
        past int64.  A query element past int64 matches nothing on an
        indexed relation.  Elements must be integers.
        """
        self._check_open()
        __, __, index_page_id = self._entry(name)
        try:
            query = sorted(set(map(operator.index, elements)))
        except TypeError:
            raise ConfigurationError("probe elements must be integers") from None
        if query and index_page_id is not None:
            return PostingIndex(self.pool, index_page_id).probe(query)
        query = np.array(query)
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

        Each relation is scanned, and every page of its posting index is
        read and every list decoded; the index must hold one posting per
        stored element.  Raises :class:`~repro.errors.CorruptPageError`
        (or another :class:`~repro.errors.StorageError`) on the first
        damaged page or miscounted index; returns counters describing what
        was checked otherwise.
        """
        self._check_open()
        # Cached frames were checksummed when first read; drop them so
        # every page comes off the disk and through the CRC again.
        self.pool.flush_all()
        self.pool.drop_all()
        before = self.disk.stats.snapshot()
        relations = tuples = postings = 0
        for name in self.relation_names():
            relations += 1
            elements = 0
            for __, stored, __ in self.get_store(name).scan():
                tuples += 1
                elements += len(stored)
            index_page_id = self._entry(name)[2]
            if index_page_id is None:
                continue
            indexed = PostingIndex(self.pool, index_page_id).postings()
            if indexed != elements:
                raise StorageError(
                    f"posting index of {name!r} holds {indexed} postings; "
                    f"the relation holds {elements} elements"
                )
            postings += indexed
        delta = self.disk.stats.delta(before)
        return {
            "relations": relations,
            "tuples": tuples,
            "postings": postings,
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
