"""Divide-and-Conquer Set Join (DCJ) partitioning — the paper's contribution.

DCJ conceptually performs ``l = log2 k`` repartitioning steps.  Each step
applies one monotone boolean hash function ``h`` to every partition pair
``R_j ⋈ S_j`` through one of two operators (Table 5):

    α(R ⋈ S, h) = (R/h  ⋈ S/h)   ∪ (R/¬h ⋈ S)      -- splits R, replicates S
    β(R ⋈ S, h) = (R/¬h ⋈ S/¬h)  ∪ (R   ⋈ S/h)     -- splits S, replicates R

Correctness follows from monotonicity: under α, a superset ``s`` with
``h(s) = 0`` can only contain subsets with ``h(r) = 0``, so it is safe to
place it only in the bottom pair; symmetrically for β.

Operators are arranged in the alternating pattern the paper motivates:
the root applies α; an α-node's top child applies α and its bottom child β
(pattern α → α, β); a β-node's top child applies β and its bottom child α
(pattern β → β, α).  The intuition: always use β to split the partition
that was replicated by the previous step.  ``pattern="alpha"`` /
``"beta"`` disable the alternation for the ablation study.

The final assignment is computed *without materializing intermediate
partitions*: each tuple is routed down the operator tree directly, as the
paper's algorithmic specification (deferred to [MGM01]) requires.  Routing
rules per node, derived from Table 5 (top child carries path bit 1):

    ========  ======  =======================  =======================
    node op   h(set)  R-side destination       S-side destination
    ========  ======  =======================  =======================
    α         1       top                      top AND bottom
    α         0       bottom                   bottom
    β         1       bottom                   bottom
    β         0       top AND bottom           top
    ========  ======  =======================  =======================

Replication therefore happens for S-tuples at α-nodes (h=1) and for
R-tuples at β-nodes (h=0).  On the paper's running example (Tables 1-4,
k=8) this yields exactly Figure 2's result: 8 signature comparisons and
14 replicated signatures.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .hashing import BooleanHashFamily, make_family
from .partitioning import Partitioner

__all__ = ["DCJPartitioner", "ALTERNATION_PATTERNS"]

_ALPHA = 0
_BETA = 1

ALTERNATION_PATTERNS = ("alternating", "alpha", "beta")


def _child_op(op: int, went_top: bool, pattern: str) -> int:
    if pattern == "alpha":
        return _ALPHA
    if pattern == "beta":
        return _BETA
    if op == _ALPHA:
        return _ALPHA if went_top else _BETA
    return _BETA if went_top else _ALPHA


class DCJPartitioner(Partitioner):
    """DCJ configured with ``l`` hash functions for ``k = 2^l`` partitions."""

    name = "DCJ"

    def __init__(
        self,
        family: BooleanHashFamily,
        num_levels: int | None = None,
        pattern: str = "alternating",
    ):
        if pattern not in ALTERNATION_PATTERNS:
            raise ConfigurationError(
                f"unknown operator pattern {pattern!r}; "
                f"expected one of {ALTERNATION_PATTERNS}"
            )
        levels = num_levels if num_levels is not None else family.num_functions
        if levels < 1:
            raise ConfigurationError("DCJ needs at least one level")
        if levels > family.num_functions:
            raise ConfigurationError(
                f"{levels} levels requested but family has only "
                f"{family.num_functions} functions"
            )
        super().__init__(2**levels)
        self.family = family
        self.num_levels = levels
        self.pattern = pattern
        self.reset_route_stats()

    @classmethod
    def for_cardinalities(
        cls,
        num_partitions: int,
        theta_r: float,
        theta_s: float,
        family_kind: str = "bitstring",
        pattern: str = "alternating",
    ) -> "DCJPartitioner":
        """Build DCJ with an optimally tuned hash family.

        ``num_partitions`` must be a power of two ("DCJ can make effective
        use of k partitions only if k is a power of two").
        """
        levels = _levels_for(num_partitions)
        family = make_family(family_kind, levels, theta_r, theta_s)
        return cls(family, levels, pattern)

    def _route(self, mask: int, is_r_side: bool) -> list[int]:
        """Route one tuple down the operator tree; return its leaf indices.

        ``mask`` packs the hash function values (bit i = h_{i+1}).  The
        returned partition index accumulates path bits, level 0 being the
        most significant.
        """
        # (partial_index, node_op) states at the current level.
        states = [(0, _ALPHA if self.pattern != "beta" else _BETA)]
        alpha_evals = beta_evals = alpha_repls = beta_repls = 0
        for level in range(self.num_levels):
            fired = bool((mask >> level) & 1)
            next_states: list[tuple[int, int]] = []
            for index, op in states:
                top = (index << 1) | 1
                bottom = index << 1
                if op == _ALPHA:
                    alpha_evals += 1
                else:
                    beta_evals += 1
                if is_r_side:
                    if op == _ALPHA:
                        destinations = [True] if fired else [False]
                    else:
                        destinations = [False] if fired else [True, False]
                        if not fired:
                            beta_repls += 1
                else:
                    if op == _ALPHA:
                        destinations = [True, False] if fired else [False]
                        if fired:
                            alpha_repls += 1
                    else:
                        destinations = [False] if fired else [True]
                for went_top in destinations:
                    child = top if went_top else bottom
                    next_states.append(
                        (child, _child_op(op, went_top, self.pattern))
                    )
            states = next_states
        self._route_stats["alpha_evaluations"] += alpha_evals
        self._route_stats["beta_evaluations"] += beta_evals
        self._route_stats["alpha_replications"] += alpha_repls
        self._route_stats["beta_replications"] += beta_repls
        return [index for index, __ in states]

    def _route_batch(
        self, fired: np.ndarray, is_r_side: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_route` for a batch: ``fired[i, level]`` is tuple ``i``'s
        value of the level's hash function.

        The states of all tuples descend together, one level per pass, as
        ``(row, index, op)`` arrays kept in tuple order and, within a
        tuple, in :meth:`_route`'s state order: a replicating state is
        repeated in place, top child first.  Returns the leaves as
        ``(rows, partitions)`` and adds to the route statistics what the
        per-tuple walk would have.
        """
        rows = np.arange(len(fired))
        index = np.zeros(len(fired), dtype=np.int64)
        op = np.full(
            len(fired), _ALPHA if self.pattern != "beta" else _BETA, dtype=np.int8
        )
        stats = self._route_stats
        for level in range(self.num_levels):
            fires = fired[rows, level]
            is_alpha = op == _ALPHA
            alphas = int(np.count_nonzero(is_alpha))
            stats["alpha_evaluations"] += alphas
            stats["beta_evaluations"] += len(op) - alphas
            # Table 5: R replicates at a beta node that does not fire, S at
            # an alpha node that does; a state that does not replicate goes
            # top exactly when (alpha, fires) on the R side and when
            # (beta, does not fire) on the S side.
            if is_r_side:
                replicates = ~is_alpha & ~fires
                goes_top = is_alpha & fires
                stats["beta_replications"] += int(np.count_nonzero(replicates))
            else:
                replicates = is_alpha & fires
                goes_top = ~is_alpha & ~fires
                stats["alpha_replications"] += int(np.count_nonzero(replicates))
            copies = replicates + 1
            went_top = np.repeat(goes_top, copies)
            went_top[(np.cumsum(copies) - copies)[replicates]] = True
            rows = np.repeat(rows, copies)
            index = (np.repeat(index, copies) << 1) | went_top
            op = np.repeat(op, copies)
            if self.pattern == "alternating":
                # alpha -> (alpha, beta), beta -> (beta, alpha): the top
                # child keeps its parent's operator.
                op = np.where(went_top, op, 1 - op)
        return rows, index

    def route_stats(self) -> dict:
        """α/β operator-node evaluation and replication counts since the
        last reset.

        Replication happens for S-tuples at α-nodes (h=1) and for
        R-tuples at β-nodes (h=0) — these counters expose which operator
        drives the paper's ``y`` for a given workload.
        """
        return dict(self._route_stats)

    def reset_route_stats(self) -> None:
        self._route_stats = {
            "alpha_evaluations": 0,
            "beta_evaluations": 0,
            "alpha_replications": 0,
            "beta_replications": 0,
        }

    def operator_nodes(self, max_levels: int | None = None):
        """The α/β operator tree as flat node descriptions, breadth-first.

        Each node dict carries:

        * ``path`` — the root-to-node bit string (top child = ``"1"``,
          bottom = ``"0"``; the root's path is ``""``),
        * ``level`` — 0-based tree level (= which repartitioning step),
        * ``op`` — ``"α"`` or ``"β"``,
        * ``function`` — the monotone hash function this node applies
          (``"h1"`` routes level 0, as in the paper's Tables 1–4).

        ``max_levels`` bounds the depth (the full tree has ``2^l − 1``
        nodes); the plan inspector renders the first few levels and
        elides the rest.
        """
        limit = self.num_levels if max_levels is None else min(
            max_levels, self.num_levels
        )
        root_op = _ALPHA if self.pattern != "beta" else _BETA
        nodes = []
        frontier = [("", root_op)]
        for level in range(limit):
            next_frontier = []
            for path, op in frontier:
                nodes.append({
                    "path": path,
                    "level": level,
                    "op": "α" if op == _ALPHA else "β",
                    "function": f"h{level + 1}",
                })
                if level + 1 < limit:
                    for went_top in (True, False):
                        next_frontier.append((
                            path + ("1" if went_top else "0"),
                            _child_op(op, went_top, self.pattern),
                        ))
            frontier = next_frontier
        return nodes

    def assign_r(self, elements: frozenset[int]) -> list[int]:
        return self._route(self.family.evaluate(elements), is_r_side=True)

    def assign_s(self, elements: frozenset[int]) -> list[int]:
        return self._route(self.family.evaluate(elements), is_r_side=False)

    def assign_r_batch(self, elements, offsets):
        fired = self.family.evaluate_batch(elements, offsets)
        return self._route_batch(fired, is_r_side=True)

    def assign_s_batch(self, elements, offsets):
        fired = self.family.evaluate_batch(elements, offsets)
        return self._route_batch(fired, is_r_side=False)

    def describe(self) -> str:
        return (
            f"DCJ(k={self.num_partitions}, levels={self.num_levels}, "
            f"pattern={self.pattern})"
        )


def _levels_for(num_partitions: int) -> int:
    if num_partitions < 2 or num_partitions & (num_partitions - 1):
        raise ConfigurationError(
            f"DCJ requires a power-of-two partition count >= 2, got {num_partitions}"
        )
    return num_partitions.bit_length() - 1
