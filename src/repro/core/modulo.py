"""Non-power-of-two partition counts via modulo folding.

DCJ and LSJ natively produce ``k = 2^l`` partitions.  The paper notes the
restriction is rarely harmful but "can be addressed using the modulo
approach suggested in [HM97]": run the partitioning with the next power
of two and fold leaf index ``i`` onto ``i mod k``.  Folding preserves
correctness — a joining pair co-located in leaf ``i`` stays co-located in
partition ``i mod k`` — while allowing any partition count.

:class:`ModuloFoldPartitioner` wraps any base partitioner; duplicates
created by folding (a tuple replicated to two leaves that collapse onto
the same folded partition) are merged, so folding can only reduce
replication, never increase it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .dcj import DCJPartitioner
from .lsj import LSJPartitioner
from .partitioning import Partitioner
from .psj import PSJPartitioner

__all__ = [
    "ModuloFoldPartitioner", "dcj_with_any_k", "lsj_with_any_k",
    "make_partitioner",
]


class ModuloFoldPartitioner(Partitioner):
    """Fold a base partitioner's assignments onto ``k`` partitions."""

    def __init__(self, base: Partitioner, num_partitions: int):
        if num_partitions > base.num_partitions:
            raise ConfigurationError(
                f"cannot fold {base.num_partitions} partitions up to "
                f"{num_partitions}; the base partitioner must produce at "
                "least as many"
            )
        super().__init__(num_partitions)
        self.base = base
        self.name = f"{base.name}-mod"

    def _fold(self, indices: list[int]) -> list[int]:
        return sorted({index % self.num_partitions for index in indices})

    def assign_r(self, elements: frozenset[int]) -> list[int]:
        return self._fold(self.base.assign_r(elements))

    def assign_s(self, elements: frozenset[int]) -> list[int]:
        return self._fold(self.base.assign_s(elements))

    def _fold_batch(self, rows: np.ndarray, leaves: np.ndarray):
        # ``rows`` ascends, so the sorted unique (row, folded partition)
        # keys are each tuple's sorted, merged partitions in tuple order.
        keys = np.unique(rows * self.num_partitions + leaves % self.num_partitions)
        return keys // self.num_partitions, keys % self.num_partitions

    def assign_r_batch(self, elements, offsets):
        return self._fold_batch(*self.base.assign_r_batch(elements, offsets))

    def assign_s_batch(self, elements, offsets):
        return self._fold_batch(*self.base.assign_s_batch(elements, offsets))

    def describe(self) -> str:
        return f"{self.base.describe()} folded to k={self.num_partitions}"


def _next_power_of_two(value: int) -> int:
    if value < 1:
        raise ConfigurationError(f"partition count must be >= 1, got {value}")
    return 1 << (value - 1).bit_length()


def dcj_with_any_k(
    num_partitions: int,
    theta_r: float,
    theta_s: float,
    family_kind: str = "bitstring",
    pattern: str = "alternating",
) -> Partitioner:
    """DCJ for an arbitrary partition count (e.g. the k = 48 the paper
    mentions), folding from the next power of two when needed."""
    power = _next_power_of_two(max(2, num_partitions))
    base = DCJPartitioner.for_cardinalities(
        power, theta_r, theta_s, family_kind, pattern
    )
    if power == num_partitions:
        return base
    return ModuloFoldPartitioner(base, num_partitions)


def lsj_with_any_k(
    num_partitions: int,
    theta_r: float,
    theta_s: float,
    family_kind: str = "bitstring",
) -> Partitioner:
    """LSJ for an arbitrary partition count via modulo folding."""
    power = _next_power_of_two(max(2, num_partitions))
    base = LSJPartitioner.for_cardinalities(power, theta_r, theta_s, family_kind)
    if power == num_partitions:
        return base
    return ModuloFoldPartitioner(base, num_partitions)


def make_partitioner(
    algorithm: str,
    k: int,
    theta_r: float,
    theta_s: float,
    seed: int = 0,
    family_kind: str = "bitstring",
    pattern: str = "alternating",
) -> Partitioner:
    """The tuned partitioner for an algorithm name at any ``k >= 1`` — the
    one place every entry point (library, database, coordinator, EXPLAIN,
    CLI, experiments) turns a join request into a partitioner."""
    if algorithm == "PSJ":
        return PSJPartitioner(k, seed=seed)
    if algorithm == "DCJ":
        return dcj_with_any_k(k, theta_r, theta_s, family_kind, pattern)
    if algorithm == "LSJ":
        return lsj_with_any_k(k, theta_r, theta_s, family_kind)
    raise ConfigurationError(f"unknown algorithm {algorithm!r}")
