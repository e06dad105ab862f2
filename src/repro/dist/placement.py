"""Containment-aware placement: which shard holds (or receives) which set.

A set containment join cannot be naively hash-partitioned on set
identity: an R-set's supersets can live on any shard, so the *S* side is
hash-placed (each S row lives on exactly one shard, its **home**) and
the *R* side is **replicated** to every shard that may hold superset
candidates — the HyperCube-style distribution specialized to the ⊆
predicate.  This module owns the three placement decisions:

* **Row → home shard** (:func:`home_shards`, a tid array at a time;
  :func:`assign_shard` for one): rendezvous (highest-random-weight)
  hashing of the tuple id over the shard-id set, so adding a shard
  moves only the rows the new shard wins and removing one moves only
  that shard's rows (:mod:`repro.dist.rebalance` relies on this).
* **R row → target shards** (:class:`ReplicationPlanner`): which shards
  an R row must be shipped to, pruned at *partition-occupancy*
  granularity: ship r to shard j iff ``partitions(r) ∩ occupied(j)`` is
  non-empty, where ``occupied(j)`` is the set of partitions with at
  least one local S entry; both sides are routed a columnar batch at a
  time.  This is exact for the paper's accounting:
  for every partition p with S entries on shard j the *entire* global
  R_p is present there, so the per-shard block-nested-loop comparison
  counts sum to exactly the single-shard x, and skipped shards would
  have contributed zero comparisons anyway.

* **Deterministic partition assignment**
  (:func:`deterministic_choice`): PSJ's R-side routing draws from a
  per-call RNG, which would make the coordinator's occupancy
  computation disagree with the shards' local partitioning.  The dist
  layer pins PSJ's element choice to a pure function of the set
  (minimum under a 64-bit mix), making every assignment content-
  deterministic; DCJ/LSJ already are.

Replication accounting is exact and separated into *logical* entries
(the paper's y: Σ|partitions(row)|, identical at every shard count) and
*physical* placements (rows/entries actually shipped), exposed through
EXPLAIN and the ``setjoin_dist_*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.psj import PSJPartitioner, _mix
from ..errors import ConfigurationError

__all__ = [
    "assign_shard",
    "home_shards",
    "deterministic_choice",
    "deterministic_partitioner",
    "ShardSummary",
    "summarize_batches",
    "ReplicationPlanner",
    "PlacementReport",
    "publish_placement",
]

_SHARD_SALT = 0x9E3779B97F4A7C15


def home_shards(tids: np.ndarray, shard_ids: Sequence[int]) -> np.ndarray:
    """Home shard of each uint64 tid: the highest-random-weight
    (rendezvous) winner, weight ``_mix(_mix(tid) ^ _mix(shard_id ^ salt))``
    in wrapping uint64 arithmetic, ties to the larger shard id.

    Deterministic in ``(tid, set of shard ids)`` — the order of
    ``shard_ids`` does not matter.  Rendezvous hashing gives the
    rebalance guarantee: growing the id set only moves rows *to* the new
    shard, shrinking it only moves the removed shard's rows.
    """
    if not shard_ids:
        raise ConfigurationError("cannot place a row over zero shards")
    ids = np.array(sorted(shard_ids), dtype=np.uint64)
    weights = _mix(_mix(np.asarray(tids, dtype=np.uint64))[None, :]
                   ^ _mix(ids ^ _SHARD_SALT)[:, None])
    # argmax takes the first maximum; over the ids reversed, the largest.
    return ids[len(ids) - 1 - np.argmax(weights[::-1], axis=0)].astype(np.int64)


def assign_shard(tid: int, shard_ids: Sequence[int]) -> int:
    """Home shard of one row: :func:`home_shards` of one tid."""
    return int(home_shards(np.array([tid], dtype=np.uint64), shard_ids)[0])


def deterministic_choice(elements: "frozenset[int]") -> int:
    """Content-deterministic PSJ element choice: min under a 64-bit mix.

    ``_mix`` is a bijection on 64-bit integers, so distinct elements
    never tie; the choice is a pure function of the set, independent of
    scan order and of how many times the set is assigned.
    """
    return min(elements, key=_mix)


def deterministic_partitioner(partitioner):
    """Make a partitioner safe for distributed planning.

    DCJ/LSJ assignments are already pure functions of the set.  A PSJ
    partitioner routing R rows via its per-call RNG is rebuilt with
    :func:`deterministic_choice`, so the coordinator's placement scan
    and every shard's local partition phase agree on each row's
    partitions.  Partitioners are returned unchanged otherwise.
    """
    if isinstance(partitioner, PSJPartitioner) \
            and partitioner._choose_element is None:
        return PSJPartitioner(
            partitioner.num_partitions,
            hash_elements=partitioner.hash_elements,
            choose_element=deterministic_choice,
        )
    return partitioner


@dataclass(frozen=True)
class ShardSummary:
    """A shard's S-slice digest, as seen by the coordinator.

    Everything the replication planner needs to decide which R rows the
    shard must receive, plus the shard's exact share of the logical y
    accounting (``entries`` = Σ|partitions(s)| over local S rows);
    ``occupied[p]`` when a local S row is in partition ``p``.
    """

    shard_id: int
    rows: int
    entries: int
    occupied: np.ndarray


def summarize_batches(
    shard_id: int,
    batches: "Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]",
    partitioner,
) -> ShardSummary:
    """Digest one shard's S rows, given as ``scan_batches()`` batches."""
    count = 0
    entries = 0
    occupied = np.zeros(partitioner.num_partitions, dtype=bool)
    for tids, elements, offsets in batches:
        __, partitions = partitioner.assign_s_batch(elements, offsets)
        count += len(tids)
        entries += len(partitions)
        occupied[partitions] = True
    return ShardSummary(shard_id, count, entries, occupied)


class ReplicationPlanner:
    """Decides, an R batch at a time, which shards must receive a copy.

    Stateful: every :meth:`targets` call updates the exact replication
    accounting, and :meth:`report` packages it once the R scan is done.
    """

    def __init__(self, summaries: "Sequence[ShardSummary]"):
        self.summaries = sorted(summaries, key=lambda s: s.shard_id)
        self.rows = 0
        self.logical_entries = 0
        self.physical_rows = 0
        self.physical_entries = 0
        self.pruned_occupancy = 0

    def targets(self, rows, partitions, count: int) -> "list[np.ndarray]":
        """One boolean mask over a batch's ``count`` R rows per shard, in
        :attr:`summaries` order, given the batch's ``assign_r_batch``
        routing: a row goes to every non-empty shard occupying one of its
        partitions."""
        entries = np.bincount(rows, minlength=count)
        self.rows += count
        self.logical_entries += len(partitions)
        masks: list[np.ndarray] = []
        for summary in self.summaries:
            hits = rows[summary.occupied[partitions]] if summary.rows else rows[:0]
            mask = np.bincount(hits, minlength=count) > 0
            shipped = int(np.count_nonzero(mask))
            self.pruned_occupancy += count - shipped
            self.physical_rows += shipped
            self.physical_entries += int(entries[mask].sum())
            masks.append(mask)
        return masks

    def report(self) -> "PlacementReport":
        return PlacementReport(
            shards=len(self.summaries),
            r_rows=self.rows,
            s_rows=sum(s.rows for s in self.summaries),
            logical_r_entries=self.logical_entries,
            logical_s_entries=sum(s.entries for s in self.summaries),
            physical_r_rows=self.physical_rows,
            physical_r_entries=self.physical_entries,
            pruned_occupancy=self.pruned_occupancy,
        )


@dataclass(frozen=True)
class PlacementReport:
    """Exact replication accounting of one distributed join's placement."""

    shards: int
    r_rows: int
    s_rows: int
    #: the paper's y, split by side — identical at every shard count.
    logical_r_entries: int
    logical_s_entries: int
    #: what was actually shipped: R row copies and their partition entries.
    physical_r_rows: int
    physical_r_entries: int
    pruned_occupancy: int

    @property
    def logical_entries(self) -> int:
        """The paper's y = Σ|partitions(row)| over both relations."""
        return self.logical_r_entries + self.logical_s_entries

    @property
    def replication_factor(self) -> float:
        """Average shard copies per R row (1.0 = no replication,
        ``shards`` = full broadcast)."""
        return self.physical_r_rows / self.r_rows if self.r_rows else 0.0

    def as_dict(self) -> dict:
        return {
            "shards": self.shards,
            "r_rows": self.r_rows,
            "s_rows": self.s_rows,
            "logical_r_entries": self.logical_r_entries,
            "logical_s_entries": self.logical_s_entries,
            "physical_r_rows": self.physical_r_rows,
            "physical_r_entries": self.physical_r_entries,
            "replication_factor": round(self.replication_factor, 6),
            "pruned_occupancy": self.pruned_occupancy,
        }

    def explain_lines(self) -> "list[str]":
        """The EXPLAIN section describing this placement."""
        return [
            f"distribution: {self.shards} shards",
            f"  R replication: {self.physical_r_rows} placements for "
            f"{self.r_rows} rows → factor "
            f"{self.replication_factor:.3f} (bounds: 1.0 ≤ factor ≤ "
            f"{float(self.shards):.1f})",
            f"  logical y (paper accounting): {self.logical_entries} "
            f"= {self.logical_r_entries} R + "
            f"{self.logical_s_entries} S entries",
            f"  physical partition entries shipped: "
            f"{self.physical_r_entries} R + "
            f"{self.logical_s_entries} S",
            f"  pruned shard visits: {self.pruned_occupancy} by "
            f"partition occupancy",
        ]


def publish_placement(report: PlacementReport, registry=None) -> None:
    """Publish one placement's accounting as ``setjoin_dist_*`` metrics."""
    from ..obs.registry import get_registry

    reg = registry if registry is not None else get_registry()
    reg.gauge(
        "setjoin_dist_shards", "Shard count of the last distributed join"
    ).set(report.shards)
    reg.counter(
        "setjoin_dist_joins_total", "Distributed joins coordinated"
    ).inc()
    reg.counter(
        "setjoin_dist_replicated_rows_total",
        "R-row shard placements shipped by the coordinator",
    ).inc(report.physical_r_rows)
    reg.counter(
        "setjoin_dist_replicated_entries_total",
        "Physical R partition entries shipped to shards",
    ).inc(report.physical_r_entries)
    reg.counter(
        "setjoin_dist_pruned_shard_visits_total",
        "R-row shard placements skipped by partition-occupancy pruning",
    ).inc(report.pruned_occupancy)
    reg.gauge(
        "setjoin_dist_replication_factor",
        "Average shard copies per R row in the last distributed join",
    ).set(report.replication_factor)
