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

The join path never stores the replicated R portion: the shard joins
the shipped ``(tids, elements, offsets)`` arrays as they are, as an
in-memory :class:`~repro.core.sets.Relation` — the read surface the
operator uses of a stored one.  The portion is reconstructible
coordinator state, so — like the operator's temporary partition pages,
which are written without WAL logging and reclaimed after the join — it
never touches the shard's catalog, and a join leaves the shard's pages
as it found them.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass

from ..core.operator import SetContainmentJoin, Testbed
from ..core.sets import Relation
from ..core.signatures import DEFAULT_SIGNATURE_BITS
from ..database import SetJoinDatabase
from ..parallel.executor import Execution
from ..parallel.merge import ShardResult
from .placement import ShardSummary, summarize_batches

__all__ = ["Shard", "ShardJoinRequest"]


@dataclass
class ShardJoinRequest:
    """Everything a shard needs to run its slice of one distributed join.

    ``r_rows`` is the replicated R portion this shard must join against
    its local S slice, as ``(tids, elements, offsets)`` slices of
    :meth:`RelationStore.scan_batches` batches, in any tid order; the
    shard joins them in memory, as a :class:`~repro.core.sets.Relation`,
    and stores nothing of them.  ``partitioner`` must be content-deterministic
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
    execution: Execution = Execution()
    #: the coordinator tracer's tags (a served query's ``query_id``) to
    #: stamp on the span tree shipped back in the result; ``None``: untraced.
    trace: "dict | None" = None


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

    def create_relation(self, name: str, rows) -> int:
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

        The portion's arrays are joined as a :class:`Relation` with the
        same operator the single-database path uses (including
        the partition-parallel engine when ``workers > 1``); verification
        fetches its R sets from those arrays.  Nothing of the portion is
        written to the shard's pages.
        """
        s_store = self.db.get_store(request.s_name)
        portion = Relation._of_batches(
            request.r_rows, name=f"__dist_r_portion_{self.shard_id}"
        )
        # The shard builds its *own* tracer rather than borrowing the
        # coordinator's: under thread fan-out a shared tracer's span
        # stack is a race, and a future remote shard could not share one
        # anyway.  The exported records ship back on the result and the
        # coordinator stitches them, exactly like process workers.
        tracer = None
        shard_span = None
        if request.trace is not None:
            from ..obs.trace import Tracer

            tracer = Tracer(tags={"shard_id": self.shard_id, **request.trace})
            shard_span = tracer.start(
                "dist.shard", shard_id=self.shard_id,
                r_rows=len(portion), s_rows=len(s_store),
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
                execution=request.execution,
                tracer=tracer,
            )
            pairs, metrics = join.run(cold_cache=False)
        except BaseException as error:
            if shard_span is not None:
                shard_span.set(error=type(error).__name__)
                tracer.finish(shard_span)
            raise
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
