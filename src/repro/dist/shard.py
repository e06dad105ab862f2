"""One shard: a full :class:`~repro.database.SetJoinDatabase` behind a
message-style interface.

Each shard owns its complete storage stack — disk manager, WAL, buffer
pool, catalog — so shards share nothing and could be moved onto other
machines by serializing the request dataclass below and the
:class:`~repro.parallel.merge.ShardResult` a join answers with (every
field is plain data except the partitioner, which is reconstructible
from ``(algorithm, k, θ_R, θ_S, seed)``).  Today the coordinator calls
shards in-process, through the same executor backends as the
partition-parallel engine; intra-shard parallelism goes through that
engine, so a distributed join with process-backed shards runs on real
cores.

The join path deliberately does *not* register the replicated R portion
in the shard's catalog: the portion is reconstructible coordinator
state, so — like the operator's temporary partition pages — it is
written without WAL logging and destroyed when the join finishes, and a
crash mid-join can cost at most leaked pages, never a corrupt shard
catalog.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass

from ..core.operator import SetContainmentJoin, Testbed
from ..core.signatures import DEFAULT_SIGNATURE_BITS
from ..database import SetJoinDatabase
from ..errors import SetJoinError
from ..parallel.merge import ShardResult
from ..storage.relation_store import RelationStore
from .placement import ShardSummary, summarize_batches

__all__ = ["Shard", "ShardJoinRequest"]


@dataclass
class ShardJoinRequest:
    """Everything a shard needs to run its slice of one distributed join.

    ``r_rows`` is the replicated R portion this shard must join against
    its local S slice, as ``(tids, elements, offsets)`` arrays of
    :meth:`RelationStore.scan_batches`; ``partitioner`` must be content-deterministic
    (see :func:`repro.dist.placement.deterministic_partitioner`) and is
    private to the shard — the coordinator sends each shard its own
    copy, never a shared instance.
    """

    shard_id: int
    s_name: str
    r_rows: "list[tuple]"
    partitioner: object
    signature_bits: int = DEFAULT_SIGNATURE_BITS
    workers: int = 1
    backend: str = "serial"
    shard_timeout: "float | None" = None
    shard_hook: object = None
    #: build a span tree for this shard join and ship it back in the
    #: result (plain dicts, so the message stays serializable).
    trace: bool = False
    #: the service-level query this join serves; stamped on every span
    #: so cross-shard traces stitch into one query tree.
    query_id: "int | None" = None


class Shard:
    """A shard id plus the database it owns."""

    def __init__(self, shard_id: int, db: SetJoinDatabase,
                 path: "str | None" = None):
        self.shard_id = shard_id
        self.db = db
        self.path = path

    @classmethod
    def open(cls, shard_id: int, path: "str | None" = None,
             **db_kwargs) -> "Shard":
        """Open (creating/recovering as needed) one shard database."""
        return cls(shard_id, SetJoinDatabase.open(path, **db_kwargs),
                   path=path)

    # ------------------------------------------------------------------
    # Catalog messages
    # ------------------------------------------------------------------

    def create_relation(self, name: str,
                        rows: "list[tuple[int, frozenset[int]]]") -> int:
        """Store this shard's slice of a relation."""
        return self.db.create_relation(name, rows)

    def drop_relation(self, name: str) -> None:
        self.db.drop_relation(name)

    def has_relation(self, name: str) -> bool:
        return name in self.db.relation_names()

    # ------------------------------------------------------------------
    # Join messages
    # ------------------------------------------------------------------

    def summarize(self, s_name: str, partitioner) -> ShardSummary:
        """Digest the local S slice for the coordinator's placement."""
        batches = self.db.get_store(s_name).scan_batches()
        return summarize_batches(self.shard_id, batches, partitioner)

    def execute_join(self, request: ShardJoinRequest) -> ShardResult:
        """Join the replicated R portion against the local S slice.

        The portion is bulk-loaded into an uncataloged temporary B-tree
        in this shard's own file/pool, joined with the same operator the
        single-database path uses (including the partition-parallel
        engine when ``workers > 1``), and destroyed afterwards — on the
        failure path too, so a retried shard join never accumulates
        stranded pages.
        """
        s_store = self.db.get_store(request.s_name)
        # The shard builds its *own* tracer rather than borrowing the
        # coordinator's: under thread fan-out a shared tracer's span
        # stack is a race, and a future remote shard could not share one
        # anyway.  The exported records ship back on the result and the
        # coordinator stitches them, exactly like process workers.
        tracer = None
        shard_span = None
        if request.trace:
            from ..obs.trace import Tracer

            tags = {"shard_id": self.shard_id}
            if request.query_id is not None:
                tags["query_id"] = request.query_id
            tracer = Tracer(tags=tags)
            shard_span = tracer.start(
                "dist.shard", shard_id=self.shard_id,
                r_rows=sum(len(tids) for tids, __, __ in request.r_rows),
                s_rows=len(s_store),
            )
        portion = RelationStore.create_batches(
            self.db.pool, request.r_rows,
            name=f"__dist_r_portion_{self.shard_id}",
        )
        try:
            testbed = Testbed.from_components(
                self.db.disk, self.db.pool, portion, s_store
            )
            join = SetContainmentJoin(
                testbed,
                request.partitioner,
                signature_bits=request.signature_bits,
                workers=request.workers,
                parallel_backend=request.backend,
                shard_timeout=request.shard_timeout,
                shard_hook=request.shard_hook,
                tracer=tracer,
                query_id=request.query_id,
            )
            pairs, metrics = join.run(cold_cache=False)
        except BaseException as error:
            if shard_span is not None:
                shard_span.set(error=type(error).__name__)
                tracer.finish(shard_span)
            raise
        finally:
            from ..storage.btree import BTree

            with suppress(SetJoinError):
                BTree(self.db.pool, portion.meta_page_id).destroy()
        if shard_span is not None:
            shard_span.set(pairs=len(pairs))
            tracer.finish(shard_span)
        return ShardResult(
            index=self.shard_id,
            pairs=sorted(pairs),
            metrics=metrics,
            spans=tracer.export() if tracer is not None else [],
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        self.db.close()

    def kill(self) -> None:
        self.db.kill()

    def destroy(self) -> None:
        """Close the shard and remove its on-disk files (rebalance path)."""
        self.close()
        if self.path is not None:
            for target in (self.path, self.path + ".wal"):
                with suppress(OSError):
                    os.remove(target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.path if self.path is not None else "memory"
        return f"Shard(id={self.shard_id}, path={where!r})"
