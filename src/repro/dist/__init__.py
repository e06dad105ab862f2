"""Sharded multi-database execution.

``repro.dist`` distributes whole relations across N independent
:class:`~repro.database.SetJoinDatabase` shards (each with its own WAL,
buffer pool and catalog) and coordinates containment joins across them:
S rows are rendezvous-hashed to a single home shard, R rows are
replicated only to the shards whose partition occupancy says superset
candidates may live there, and the
per-shard answers — provably disjoint — merge into a result that is
bit-identical to single-shard execution, x/y accounting included.

Entry points: :meth:`SetJoinDatabase.open_sharded` /
:meth:`ShardedDatabase.open`, ``setjoin join --shards`` /
``db --shards``, and the query service's ``--shards`` flag.  See
``docs/sharding.md`` for the placement math and the invariance
argument.
"""

from .coordinator import ShardedDatabase
from .placement import (
    PlacementReport,
    ReplicationPlanner,
    ShardSummary,
    assign_shard,
    deterministic_choice,
    deterministic_partitioner,
    home_shards,
    publish_placement,
    summarize_batches,
)
from .rebalance import RebalanceReport, rebalance, reshard
from .shard import Shard, ShardJoinRequest

__all__ = [
    "ShardedDatabase",
    "Shard",
    "ShardJoinRequest",
    "PlacementReport",
    "ReplicationPlanner",
    "ShardSummary",
    "assign_shard",
    "deterministic_choice",
    "deterministic_partitioner",
    "home_shards",
    "publish_placement",
    "summarize_batches",
    "RebalanceReport",
    "rebalance",
    "reshard",
]
