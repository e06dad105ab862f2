"""The join spine: one partitioner resolver, each phase from one routine.

Every entry point that takes an algorithm name — the library call, the
database, the shard coordinator, EXPLAIN and the CLI — must run the same
partitioner for the same (algorithm, k, relations, seed), and the
routines the operator shares with the intersection join must account
exactly as the separate copies did (counters below were measured at the
commit before the loops were merged).
"""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.core.api import containment_join
from repro.core.intersection import (
    intersection_join_nested_loop,
    run_disk_intersection_join,
)
from repro.core.modulo import make_partitioner
from repro.core.operator import run_disk_join
from repro.core.partitioning import Partitioner
from repro.core.sets import containment_pairs_nested_loop
from repro.data.io import save_relation
from repro.data.workloads import uniform_workload
from repro.database import SetJoinDatabase
from repro.dist import ShardedDatabase
from repro.errors import ConfigurationError
from repro.obs.explain import explain_join

ALGORITHMS = ("DCJ", "PSJ", "LSJ")
K_VALUES = (1, 2, 16, 48)
SEEDS = (0, 5)

_SUMMARY = re.compile(
    r"# (\d+) pairs; (\d+) signature comparisons, (\d+) replicated"
)


@pytest.fixture(scope="module")
def workloads(tmp_path_factory):
    """Per seed: the relations (small enough that the database's sampled
    θ is the exact mean) and their set files for the CLI."""
    out = {}
    for seed in SEEDS:
        lhs, rhs = uniform_workload(
            60, 80, 6, 12, domain_size=400, seed=seed, planted_pairs=5
        ).materialize()
        directory = tmp_path_factory.mktemp(f"spine{seed}")
        r_path, s_path = str(directory / "r.txt"), str(directory / "s.txt")
        save_relation(lhs, r_path)
        save_relation(rhs, s_path)
        out[seed] = (lhs, rhs, r_path, s_path)
    return out


def _summary(pairs, metrics):
    return (metrics.algorithm, metrics.num_partitions,
            metrics.signature_comparisons, metrics.replicated_signatures,
            pairs)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", K_VALUES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_entry_point_runs_the_same_join(workloads, capsys,
                                              algorithm, k, seed):
    lhs, rhs, r_path, s_path = workloads[seed]
    truth = containment_pairs_nested_loop(lhs, rhs)
    name, partitions, x, y, pairs = reference = _summary(
        *containment_join(lhs, rhs, algorithm, k, seed=seed)
    )
    assert pairs == truth
    assert partitions == k
    assert name == (algorithm if algorithm == "PSJ" or k in (2, 16)
                    else f"{algorithm}-mod")

    # EXPLAIN describes the partitioner the join ran.
    described = explain_join(
        lhs, rhs, algorithm, k, seed=seed
    ).root.children[0].detail
    assert described == make_partitioner(
        algorithm, k, lhs.average_cardinality(), rhs.average_cardinality(),
        seed,
    ).describe()

    with SetJoinDatabase.open(None) as db:
        db.create_relation("R", lhs)
        db.create_relation("S", rhs)
        assert _summary(*db.join(
            "R", "S", algorithm=algorithm, num_partitions=k, seed=seed
        )) == reference
        assert db.explain(
            "R", "S", algorithm, k, seed=seed
        ).root.children[0].detail == described

    sharded = []
    for shards in (1, 2):
        with ShardedDatabase.open(None, shards=shards) as db:
            db.create_relation("R", lhs)
            db.create_relation("S", rhs)
            sharded.append(_summary(*db.join(
                "R", "S", algorithm=algorithm, num_partitions=k, seed=seed
            )))
    assert sharded[0] == sharded[1]
    # Shards route PSJ's R side by a content-deterministic element choice
    # instead of the seeded RNG, so its x (never y) is its own.
    compared = slice(0, 2) if algorithm == "PSJ" else slice(0, 3)
    assert sharded[0][compared] == reference[compared]
    assert sharded[0][3:] == reference[3:]

    capsys.readouterr()
    assert main(["join", r_path, s_path, "--algorithm", algorithm.lower(),
                 "--partitions", str(k)]) == 0
    captured = capsys.readouterr()
    cli_pairs = {
        tuple(map(int, line.split())) for line in captured.out.splitlines()
    }
    count, cli_x, cli_y = map(int, _SUMMARY.search(captured.err).groups())
    assert (cli_pairs, count, cli_y) == (pairs, len(pairs), y)
    if algorithm != "PSJ" or seed == 0:  # the CLI has no --seed
        assert cli_x == x


def test_unknown_algorithm_is_refused_by_the_resolver():
    with pytest.raises(ConfigurationError, match="unknown algorithm"):
        make_partitioner("SHJ", 8, 10, 20)


# ----------------------------------------------------------------------
# The shared partition-scan and fetch-and-verify routines
# ----------------------------------------------------------------------


def _counters(metrics):
    return {
        "y": metrics.replicated_signatures,
        "x": metrics.signature_comparisons,
        "candidates": metrics.candidates,
        "set_comparisons": metrics.set_comparisons,
        "false_positives": metrics.false_positives,
        "io": [(phase.page_reads, phase.page_writes)
               for phase in (metrics.partitioning, metrics.joining,
                             metrics.verification)],
    }


@pytest.mark.parametrize("threshold, results, false_positives", [
    (1, 434, 14211), (2, 10, 14635), (3, 6, 14639),
])
def test_disk_intersection_join_accounting_is_pinned(
        small_workload, threshold, results, false_positives):
    lhs, rhs = small_workload
    pairs, metrics = run_disk_intersection_join(
        lhs, rhs, threshold=threshold, num_partitions=16,
        signature_bits=64, buffer_pages=8,
    )
    assert pairs == intersection_join_nested_loop(lhs, rhs, threshold)[0]
    assert len(pairs) == results
    assert _counters(metrics) == {
        "y": 2228, "x": 71411, "candidates": 14645,
        "set_comparisons": 14645, "false_positives": false_positives,
        # Portion pages (DESIGN.md §1.12): partitioning (16, 19) before.
        "io": [(14, 17), (13, 0), (13, 0)],
    }


class _ElementReplicating(Partitioner):
    """Replicates both sides on every element, so a joining pair meets in
    one partition per shared residue.  DCJ, LSJ and PSJ never co-locate a
    pair twice (at each α/β node a pair follows one child together), so
    this is what exercises verifying a candidate found twice once."""

    name = "ElementReplicating"

    def assign_r(self, elements):
        return sorted({element % self.num_partitions for element in elements})

    assign_s = assign_r


#: Partitioning I/O under portion pages (DESIGN.md §1.12); it was (16, 11)
#: and (16, 12) when portions were inserted into the B-tree one by one.
@pytest.mark.parametrize("make, x, y, candidates, false_positives, io", [
    (lambda: make_partitioner("DCJ", 16, 3, 10), 15089, 947, 2448, 2195,
     [(13, 8), (3, 0), (13, 0)]),
    (lambda: _ElementReplicating(8), 48181, 1351, 3266, 3013,
     [(13, 9), (3, 0), (13, 0)]),
])
def test_deferred_verification_is_pinned(
        make, x, y, candidates, false_positives, io):
    lhs, rhs = uniform_workload(
        150, 150, 3, 10, domain_size=40, seed=5, planted_pairs=4
    ).materialize()
    pairs, metrics = run_disk_join(
        lhs, rhs, make(), signature_bits=16, buffer_pages=8,
    )
    assert pairs == containment_pairs_nested_loop(lhs, rhs)
    assert len(pairs) == 253
    assert _counters(metrics) == {
        "y": y, "x": x, "candidates": candidates,
        "set_comparisons": candidates, "false_positives": false_positives,
        "io": io,
    }
