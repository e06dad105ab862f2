"""Fault injection inside parallel join workers.

A worker that dies mid-shard must surface as a typed ``SetJoinError``
(never a bare ``BrokenProcessPool`` or backend-specific exception), and
the failed join must leave no orphaned spill-partition pages behind.
"""

import pytest

from repro.core.operator import SetContainmentJoin, Testbed
from repro.core.psj import PSJPartitioner
from repro.errors import ParallelExecutionError, SetJoinError
from repro.parallel.executor import Execution


def fail_first_io(spec):
    """Every worker's FaultInjectingDiskManager dies on its first page
    read."""
    spec.fail_after = 0


@pytest.fixture()
def loaded_testbed(tmp_path, small_workload):
    lhs, rhs = small_workload
    with Testbed(path=str(tmp_path / "faults.db")) as testbed:
        testbed.load(lhs, rhs)
        yield testbed


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_worker_io_failure_is_typed(loaded_testbed, backend):
    join = SetContainmentJoin(
        loaded_testbed, PSJPartitioner(8, seed=1),
        workers=2, parallel_backend=backend,
        execution=Execution(hook=fail_first_io),
    )
    with pytest.raises(SetJoinError) as excinfo:
        join.run()
    assert isinstance(excinfo.value, ParallelExecutionError)
    # The message names the failed shard and the underlying error class,
    # so the caller can tell an injected fault from a timeout.
    assert "InjectedIOError" in str(excinfo.value)
    assert "shard" in str(excinfo.value)


def test_failed_join_leaves_no_orphaned_partitions(loaded_testbed):
    live_before = loaded_testbed.disk.num_live_pages
    join = SetContainmentJoin(
        loaded_testbed, PSJPartitioner(8, seed=1),
        workers=2, parallel_backend="process",
        execution=Execution(hook=fail_first_io),
    )
    with pytest.raises(ParallelExecutionError):
        join.run()
    # Spill partitions written during the partitioning phase were
    # reclaimed on the failure path: only the relation pages remain.
    assert loaded_testbed.disk.num_live_pages == live_before


def test_testbed_usable_after_worker_failure(loaded_testbed):
    failing = SetContainmentJoin(
        loaded_testbed, PSJPartitioner(8, seed=1),
        workers=2, parallel_backend="process",
        execution=Execution(hook=fail_first_io),
    )
    with pytest.raises(ParallelExecutionError):
        failing.run()
    # A fresh serial join on the same testbed still works — the failure
    # is contained to the worker's private disk view.
    pairs, __ = SetContainmentJoin(
        loaded_testbed, PSJPartitioner(8, seed=1)
    ).run()
    expected, __ = SetContainmentJoin(
        loaded_testbed, PSJPartitioner(8, seed=1),
        workers=2, parallel_backend="process",
    ).run()
    assert pairs == expected
