"""Partitioning interfaces and in-memory partition assignments.

A partitioning algorithm decomposes ``R ⋈⊆ S`` into ``k`` independent
subtasks ``R_i ⋈ S_i``.  It must be *correct*: every joining pair
``r ⊆ s`` must be co-located in at least one partition.  Its quality is
measured by

* the **comparison factor** -- Σᵢ |R_i|·|S_i| divided by |R|·|S| (CPU
  proxy), and
* the **replication factor** -- total signatures written across all
  partitions divided by |R| + |S| (I/O proxy).

Concrete partitioners (:mod:`repro.core.dcj`, ``psj``, ``lsj``) implement
:class:`Partitioner`; :class:`PartitionAssignment` materializes an
assignment in memory for analysis, worked examples and the model-accuracy
simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..errors import ConfigurationError
from .sets import Relation

__all__ = ["Partitioner", "PartitionAssignment", "assign_batch"]


def assign_batch(
    assign: Callable[[frozenset[int]], list[int]],
    elements: np.ndarray,
    offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Run a per-tuple ``assign`` over a columnar batch of sets.

    Set ``i`` of the batch is ``elements[offsets[i]:offsets[i + 1]]``.
    Returns ``(rows, partitions)``, one entry per (tuple, partition) the
    per-tuple loop would emit and in its order: tuples in batch order,
    each tuple's partitions in the order ``assign`` lists them — so an
    ``assign`` that draws random numbers draws them in that order too.
    This is the batch interface's adapter for every scalar rule (PSJ, LSJ,
    a test's partitioner, the intersection join's local function).
    """
    flat, bounds = elements.tolist(), offsets.tolist()
    rows: list[int] = []
    partitions: list[int] = []
    for row, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        assigned = assign(frozenset(flat[lo:hi]))
        partitions += assigned
        rows += [row] * len(assigned)
    return np.array(rows, dtype=np.int64), np.array(partitions, dtype=np.int64)


class Partitioner:
    """One partitioning algorithm configured for ``k`` partitions."""

    name: str = "abstract"

    def __init__(self, num_partitions: int):
        if num_partitions < 1:
            raise ConfigurationError(
                f"number of partitions must be >= 1, got {num_partitions}"
            )
        self.num_partitions = num_partitions

    def assign_r(self, elements: frozenset[int]) -> list[int]:
        """Partitions for a tuple of R (the subset side)."""
        raise NotImplementedError

    def assign_s(self, elements: frozenset[int]) -> list[int]:
        """Partitions for a tuple of S (the superset side)."""
        raise NotImplementedError

    def assign_r_batch(
        self, elements: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`assign_r` for a columnar batch of R sets, as
        ``(rows, partitions)`` arrays in the order the per-tuple loop emits
        (see :func:`assign_batch`, which this default runs; an algorithm
        overrides it where it can route the batch with array operations)."""
        return assign_batch(self.assign_r, elements, offsets)

    def assign_s_batch(
        self, elements: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`assign_s` for a columnar batch of S sets."""
        return assign_batch(self.assign_s, elements, offsets)

    def describe(self) -> str:
        return f"{self.name}(k={self.num_partitions})"

    def route_stats(self) -> dict:
        """Observability hook: routing counters accumulated since the
        last :meth:`reset_route_stats` (empty for stateless algorithms;
        DCJ reports per-operator α/β evaluation and replication counts).
        """
        return {}

    def reset_route_stats(self) -> None:
        """Zero the counters behind :meth:`route_stats` (no-op unless
        the algorithm keeps any)."""


@dataclass
class PartitionAssignment:
    """A materialized partition assignment with its quality measures."""

    num_partitions: int
    r_partitions: list[list[int]]  # per partition: tids from R
    s_partitions: list[list[int]]  # per partition: tids from S
    r_size: int
    s_size: int

    @classmethod
    def compute(
        cls, partitioner: Partitioner, lhs: Relation, rhs: Relation
    ) -> "PartitionAssignment":
        """Assign every tuple of both relations."""
        k = partitioner.num_partitions
        r_parts: list[list[int]] = [[] for __ in range(k)]
        s_parts: list[list[int]] = [[] for __ in range(k)]
        for row in lhs:
            for index in partitioner.assign_r(row.elements):
                r_parts[index].append(row.tid)
        for row in rhs:
            for index in partitioner.assign_s(row.elements):
                s_parts[index].append(row.tid)
        return cls(k, r_parts, s_parts, len(lhs), len(rhs))

    @property
    def comparisons(self) -> int:
        """Σ |R_i| · |S_i| — nested-loop signature comparisons."""
        return sum(
            len(r) * len(s) for r, s in zip(self.r_partitions, self.s_partitions)
        )

    @property
    def replicated_signatures(self) -> int:
        """Total signatures stored across all partitions of both relations."""
        return sum(map(len, self.r_partitions)) + sum(map(len, self.s_partitions))

    @property
    def comparison_factor(self) -> float:
        denominator = self.r_size * self.s_size
        return self.comparisons / denominator if denominator else 0.0

    @property
    def replication_factor(self) -> float:
        denominator = self.r_size + self.s_size
        return self.replicated_signatures / denominator if denominator else 0.0

    def candidate_pairs(self) -> set[tuple[int, int]]:
        """All (r_tid, s_tid) pairs co-located in at least one partition."""
        pairs: set[tuple[int, int]] = set()
        for r_part, s_part in zip(self.r_partitions, self.s_partitions):
            for r_tid in r_part:
                for s_tid in s_part:
                    pairs.add((r_tid, s_tid))
        return pairs

    def covers(self, joining_pairs: Iterable[tuple[int, int]]) -> bool:
        """Correctness check: does the assignment co-locate every joining pair?"""
        return set(joining_pairs) <= self.candidate_pairs()
