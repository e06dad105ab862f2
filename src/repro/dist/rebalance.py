"""Shard add/remove with consistent reassignment.

Rendezvous hashing (:func:`~repro.dist.placement.assign_shard`) makes
resharding minimal by construction: growing the id set moves only the
rows the new shard now wins (an expected ``1/(N+1)`` fraction), and
shrinking moves only the removed shard's rows — every other row keeps
its home.  The report returned by :func:`rebalance` records the exact
moved fraction so tests (and the ``setjoin_dist_rows_moved_total``
counter) can hold that guarantee.

The move itself is stop-the-world and snapshot-based: relations are
read out shard-locally, shards are added/destroyed, and every relation
is rewritten under the new assignment.  That is the right trade for a
coordinator whose shards live in one process today; an online protocol
can replace the middle step without changing the placement math.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .placement import assign_shard
from .shard import Shard

__all__ = ["RebalanceReport", "rebalance", "reshard"]


@dataclass(frozen=True)
class RebalanceReport:
    """What one reshard did: id sets and exact per-relation movement."""

    old_shard_ids: "list[int]"
    new_shard_ids: "list[int]"
    #: relation → {"total": rows, "moved": rows whose home changed}
    relations: "dict[str, dict[str, int]]" = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return sum(entry["total"] for entry in self.relations.values())

    @property
    def moved_rows(self) -> int:
        return sum(entry["moved"] for entry in self.relations.values())

    @property
    def moved_fraction(self) -> float:
        total = self.total_rows
        return self.moved_rows / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "old_shard_ids": self.old_shard_ids,
            "new_shard_ids": self.new_shard_ids,
            "relations": self.relations,
            "total_rows": self.total_rows,
            "moved_rows": self.moved_rows,
            "moved_fraction": round(self.moved_fraction, 6),
        }


def reshard(db, shards: int) -> RebalanceReport:
    """Reshape ``db`` to exactly ``shards`` shards.

    Growing appends fresh ids past the current maximum; shrinking drops
    the highest ids.  A no-op request (same count) returns an empty
    report without touching data.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    old_ids = db.shard_ids
    if shards == len(old_ids):
        return RebalanceReport(old_shard_ids=old_ids, new_shard_ids=old_ids)
    if shards > len(old_ids):
        next_id = max(old_ids) + 1
        new_ids = old_ids + list(
            range(next_id, next_id + shards - len(old_ids))
        )
    else:
        new_ids = sorted(old_ids)[:shards]
    return rebalance(db, new_ids)


def rebalance(db, new_ids: "list[int]") -> RebalanceReport:
    """Move ``db`` onto exactly the shard-id set ``new_ids``."""
    db._check_open()
    new_ids = sorted(set(new_ids))
    if not new_ids:
        raise ConfigurationError("cannot rebalance onto zero shards")
    old_ids = db.shard_ids

    # Snapshot every relation (rows are small Python frozensets; a
    # stop-the-world copy is the honest baseline for in-process shards).
    names = db.relation_names()
    snapshots = {name: list(db.scan_relation(name)) for name in names}

    report_relations: "dict[str, dict[str, int]]" = {}
    for name, rows in snapshots.items():
        moved = sum(
            1 for tid, __ in rows
            if assign_shard(tid, old_ids) != assign_shard(tid, new_ids)
        )
        report_relations[name] = {"total": len(rows), "moved": moved}

    old_by_id = {shard.shard_id: shard for shard in db.shards}
    from .coordinator import _shard_path

    kept = [old_by_id[sid] for sid in new_ids if sid in old_by_id]
    added = [
        Shard.open(sid, _shard_path(db.path, sid), model=db.model)
        for sid in new_ids if sid not in old_by_id
    ]
    removed = [
        old_by_id[sid] for sid in old_ids if sid not in set(new_ids)
    ]

    for name in names:
        for shard in kept:
            shard.drop_relation(name)
    for shard in removed:
        shard.destroy()

    db.shards = sorted(kept + added, key=lambda shard: shard.shard_id)
    db._write_manifest()
    db._statistics_memo.clear()

    for name, rows in snapshots.items():
        db.create_relation(name, rows)

    report = RebalanceReport(
        old_shard_ids=old_ids,
        new_shard_ids=new_ids,
        relations=report_relations,
    )
    from ..obs.registry import get_registry

    registry = get_registry()
    registry.counter(
        "setjoin_dist_reshards_total", "Reshard operations executed"
    ).inc()
    registry.counter(
        "setjoin_dist_rows_moved_total",
        "Rows whose home shard changed during reshards",
    ).inc(report.moved_rows)
    return report
