"""One fan-out: partition workers and database shards share one executor
and one merge (DESIGN.md §1.11).

The differential matrix runs one DCJ join through the dist coordinator
at every shard count × per-shard backend × worker count — so both
fan-outs, the coordinator's over shards and the engine's over partition
pairs, do the work — and holds each run to values recorded when the two
fan-outs still had separate dispatch and merge code: the pair digest,
x, y, candidates, one ``shard_joining`` entry per shard, and the
deterministic counters the run adds to the global metrics registry.
"""

import hashlib
import json
import multiprocessing

import pytest

from repro.core.operator import SetContainmentJoin, Testbed
from repro.core.psj import PSJPartitioner
from repro.data.workloads import uniform_workload
from repro.dist import ShardedDatabase
from repro.errors import ParallelExecutionError
from repro.obs.registry import get_registry
from repro.parallel.executor import Execution, ProcessBackend

process_available = ProcessBackend(2).available()

PAIRS_DIGEST = "660e3aeb7ea4f842"
X, Y, CANDIDATES = 24_493, 888, 15

#: (shards, workers) → digest of the run's registry counter totals (every
#: counter but the ``seconds`` ones).  The backend is not a key: serial,
#: thread and process runs must publish identical totals.  Re-pinned for
#: portion pages (DESIGN.md §1.12): only ``setjoin_buffer_hits_total``
#: moved, 172 → 81, 277 → 139 and 394 → 197 at 1, 2 and 3 shards.
#: Re-pinned for the one relation loader (DESIGN.md §1.17), whose R
#: portions have full leaves: at 1, 2 and 3 shards buffer hits fell
#: 81 → 80, 139 → 135 and 197 → 190, and page writes (all of them the
#: partition phase's) 20 → 19, 34 → 32 and 51 → 48.
#: Re-pinned for in-memory R portions (DESIGN.md §1.19): a shard joins
#: the shipped arrays instead of writing them to a B-tree and reading it
#: back, so at 1, 2 and 3 shards buffer hits fell 80 → 69, 135 → 114 and
#: 190 → 159, and page writes 19 → 12, 32 → 18 and 48 → 27.
REGISTRY_DIGESTS = {
    (1, 1): "5684e75394c83ba9", (1, 2): "0c4c8ba5f33eb1bb",
    (2, 1): "8d3918ebd8fc6280", (2, 2): "eae21d013110f2a8",
    (3, 1): "6482f254d304f22a", (3, 2): "1add58fad249d66e",
}


def _digest(value) -> str:
    return hashlib.sha256(value.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def relations():
    return uniform_workload(
        150, 200, 4, 20, domain_size=300, seed=5, planted_pairs=10
    ).materialize()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("shards", [1, 2, 3])
def test_differential_matrix(relations, shards, backend, workers):
    if backend == "process" and not process_available:
        pytest.skip("process backend unavailable in this sandbox")
    lhs, rhs = relations
    registry = get_registry()
    with ShardedDatabase.open(None, shards=shards) as db:
        db.create_relation("R", lhs)
        db.create_relation("S", rhs)
        before = registry.snapshot()
        pairs, metrics = db.join("R", "S", "DCJ", 8,
                                 workers=workers, backend=backend)
        totals = {
            name: entry["value"]
            for name, entry in sorted(registry.delta(before).items())
            if entry["kind"] == "counter" and "seconds" not in name
        }
    assert _digest(repr(sorted(pairs))) == PAIRS_DIGEST
    assert metrics.signature_comparisons == X
    assert metrics.replicated_signatures == Y
    assert metrics.candidates == CANDIDATES
    assert len(metrics.shard_joining) == shards
    assert (_digest(json.dumps(totals, sort_keys=True))
            == REGISTRY_DIGESTS[shards, workers]), totals


@pytest.mark.skipif(not process_available,
                    reason="process backend unavailable in this sandbox")
def test_broken_process_pool_leaves_no_child_behind(small_workload):
    """A chaos kill of one of two process workers breaks the pool; the
    error must not propagate until every worker is terminated and
    reaped."""
    for child in multiprocessing.active_children():  # earlier tests' pools
        child.join(timeout=5.0)
    lhs, rhs = small_workload

    def kill_first_shard(spec):
        spec.chaos_kill = spec.index == 0

    with Testbed() as testbed:
        testbed.load(lhs, rhs)
        join = SetContainmentJoin(
            testbed, PSJPartitioner(8, seed=1), workers=2,
            parallel_backend="process",
            execution=Execution(hook=kill_first_shard),
        )
        with pytest.raises(ParallelExecutionError) as excinfo:
            join.run()
        assert multiprocessing.active_children() == []
    assert excinfo.value.kind == "worker_death"
