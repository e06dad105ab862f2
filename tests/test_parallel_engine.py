"""Tests for the partition-parallel execution engine.

The contract under test: for any worker count and any backend, the join
produces the identical result set, identically ordered at the merge
boundary, with identical paper-accounting counts (``x`` = signature
comparisons, ``y`` = replicated signatures) to the serial operator.
"""

import pytest

from repro.core.metrics import JoinMetrics
from repro.core.operator import SetContainmentJoin, Testbed, run_disk_join
from repro.core.psj import PSJPartitioner
from repro.core.sets import containment_pairs_nested_loop
from repro.errors import ConfigurationError, ParallelExecutionError
from repro.parallel.executor import (
    Execution,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.parallel.merge import ShardResult, merge_results


@pytest.fixture(scope="module")
def workload():
    from repro.data.workloads import uniform_workload

    return uniform_workload(
        120, 140, 8, 16, domain_size=5_000, seed=13, planted_pairs=6
    ).materialize()


@pytest.fixture(scope="module")
def serial_run(workload):
    lhs, rhs = workload
    return run_disk_join(lhs, rhs, PSJPartitioner(8, seed=1))


class TestResultInvariance:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_memory_backed(self, workload, serial_run, workers, backend):
        lhs, rhs = workload
        expected, baseline = serial_run
        pairs, metrics = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1),
            workers=workers, backend=backend,
        )
        assert pairs == expected
        assert metrics.signature_comparisons == baseline.signature_comparisons
        assert metrics.replicated_signatures == baseline.replicated_signatures
        assert metrics.candidates == baseline.candidates
        assert metrics.false_positives == baseline.false_positives
        assert metrics.set_comparisons == baseline.set_comparisons

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_file_backed_reopen_path(self, tmp_path, workload, serial_run,
                                     backend):
        """Workers open their own read-only FileDiskManager views."""
        lhs, rhs = workload
        expected, baseline = serial_run
        pairs, metrics = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1),
            path=str(tmp_path / f"{backend}.db"),
            workers=4, backend=backend,
        )
        assert pairs == expected
        assert metrics.signature_comparisons == baseline.signature_comparisons
        assert metrics.replicated_signatures == baseline.replicated_signatures

    def test_correct_against_nested_loop(self, workload):
        lhs, rhs = workload
        pairs, __ = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1), workers=3, backend="process"
        )
        assert pairs == containment_pairs_nested_loop(lhs, rhs)

    def test_resident_partitions_shipped_inline(self, workload, serial_run):
        lhs, rhs = workload
        expected, baseline = serial_run
        pairs, metrics = run_disk_join(
            lhs, rhs, PSJPartitioner(8, seed=1),
            workers=2, backend="thread", resident_partitions=4,
        )
        assert pairs == expected
        assert metrics.signature_comparisons == baseline.signature_comparisons

    def test_dcj_cross_shard_duplicates_collapse(self, workload):
        """DCJ replicates tuples into several partitions; pairs found by
        different shards must dedup at the merge boundary."""
        from repro.core.dcj import DCJPartitioner

        lhs, rhs = workload
        partitioner = DCJPartitioner.for_cardinalities(16, 8, 16)
        expected, baseline = run_disk_join(lhs, rhs, partitioner)
        pairs, metrics = run_disk_join(
            lhs, rhs, partitioner, workers=4, backend="process"
        )
        assert pairs == expected
        assert metrics.candidates == baseline.candidates
        assert metrics.signature_comparisons == baseline.signature_comparisons


class TestDeterministicOrdering:
    def test_identical_order_across_worker_counts(self, workload):
        """The determinism gap test: result pairs identically ordered for
        workers 1/2/4 (sorting happens at the merge boundary, so no
        ordering depends on shard timing)."""
        lhs, rhs = workload
        orderings = []
        for workers in (1, 2, 4):
            pairs, __ = run_disk_join(
                lhs, rhs, PSJPartitioner(8, seed=1),
                workers=workers, backend="thread",
            )
            orderings.append(sorted(pairs))
        assert orderings[0] == orderings[1] == orderings[2]

    def test_merge_sorts_by_tid(self):
        shard_a = ShardResult(pairs=[(3, 1), (1, 2)])
        shard_b = ShardResult(pairs=[(2, 9), (1, 2), (0, 5)])
        merged, __ = merge_results([shard_b, shard_a], JoinMetrics())
        assert merged == [(0, 5), (1, 2), (2, 9), (3, 1)]
        # Shard order must not matter.
        assert merged == merge_results([shard_a, shard_b], JoinMetrics())[0]


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("gpu", workers=2)

    def test_serial_requested_stays_serial(self):
        backend, reason = resolve_backend("serial", workers=4)
        assert isinstance(backend, SerialBackend)
        assert reason is None

    def test_single_worker_never_builds_a_pool(self):
        backend, __ = resolve_backend("process", workers=1)
        assert isinstance(backend, SerialBackend)

    def test_thread_and_process_resolve(self):
        backend, __ = resolve_backend("thread", workers=2)
        assert isinstance(backend, ThreadBackend)
        backend, reason = resolve_backend("process", workers=2)
        if reason is None:
            assert isinstance(backend, ProcessBackend)
        else:
            assert isinstance(backend, SerialBackend)

    def test_unavailable_process_backend_falls_back(self, monkeypatch,
                                                    workload, serial_run):
        from repro.obs.trace import Tracer

        monkeypatch.setattr(ProcessBackend, "available", lambda self: False)
        lhs, rhs = workload
        expected, __ = serial_run
        tracer = Tracer()
        with Testbed() as testbed:
            testbed.load(lhs, rhs)
            join = SetContainmentJoin(
                testbed, PSJPartitioner(8, seed=1),
                workers=4, parallel_backend="process", tracer=tracer,
            )
            pairs, __ = join.run()
        assert pairs == expected
        (phase,) = [span for root in tracer.roots for span in root.walk()
                    if span.name == "phase.join"]
        assert phase.attrs["backend"] == "serial"
        assert "unavailable" in phase.attrs["fallback"]


class TestConfigurationGuards:
    def test_zero_workers_rejected(self, paper_r, paper_s):
        with Testbed() as testbed:
            testbed.load(paper_r, paper_s)
            with pytest.raises(ConfigurationError):
                SetContainmentJoin(testbed, PSJPartitioner(4), workers=0)

    def test_unknown_backend_rejected(self, paper_r, paper_s):
        with Testbed() as testbed:
            testbed.load(paper_r, paper_s)
            with pytest.raises(ConfigurationError):
                SetContainmentJoin(
                    testbed, PSJPartitioner(4), parallel_backend="gpu"
                )

    @pytest.mark.parametrize("options", [{"spill_candidates": True}])
    def test_parallel_excludes_serial_only_modes(self, paper_r, paper_s,
                                                 options):
        with Testbed() as testbed:
            testbed.load(paper_r, paper_s)
            with pytest.raises(ConfigurationError):
                SetContainmentJoin(
                    testbed, PSJPartitioner(4), workers=2, **options
                )


class TestTimeout:
    def test_slow_shard_raises_typed_error(self, monkeypatch, workload):
        import time as time_module

        import repro.parallel.engine as engine_module

        def stalling_shard(spec):
            time_module.sleep(5.0)

        monkeypatch.setattr(engine_module, "run_shard", stalling_shard)
        lhs, rhs = workload
        with Testbed() as testbed:
            testbed.load(lhs, rhs)
            join = SetContainmentJoin(
                testbed, PSJPartitioner(8, seed=1),
                workers=2, parallel_backend="thread",
                execution=Execution(timeout=0.05),
            )
            with pytest.raises(ParallelExecutionError, match="timeout"):
                join.run()

    def test_partitions_dropped_after_timeout(self, monkeypatch, workload):
        import repro.parallel.engine as engine_module

        def stalling_shard(spec):
            import time as time_module

            time_module.sleep(5.0)

        monkeypatch.setattr(engine_module, "run_shard", stalling_shard)
        lhs, rhs = workload
        with Testbed() as testbed:
            testbed.load(lhs, rhs)
            live_before = testbed.disk.num_live_pages
            join = SetContainmentJoin(
                testbed, PSJPartitioner(8, seed=1),
                workers=2, parallel_backend="thread",
                execution=Execution(timeout=0.05),
            )
            with pytest.raises(ParallelExecutionError):
                join.run()
            assert testbed.disk.num_live_pages == live_before


class TestEmptyInputs:
    def test_no_shards_short_circuits(self, paper_r):
        from repro.core.sets import Relation

        empty = Relation.from_sets([], name="S")
        pairs, metrics = run_disk_join(
            paper_r, empty, PSJPartitioner(4, seed=1),
            workers=4, backend="process",
        )
        assert pairs == set()
        assert metrics.signature_comparisons == 0


class TestTimeoutCancellation:
    """Batch-deadline semantics: queued futures cancelled, runners
    abandoned, and the error says which is which (satellite fix for the
    thread backend leaving its pool fully un-cancelled)."""

    def test_error_carries_timeout_kind_and_accounting(self, monkeypatch,
                                                       workload):
        import time as time_module

        import repro.parallel.engine as engine_module

        def stalling_shard(spec):
            time_module.sleep(5.0)

        monkeypatch.setattr(engine_module, "run_shard", stalling_shard)
        lhs, rhs = workload
        with Testbed() as testbed:
            testbed.load(lhs, rhs)
            join = SetContainmentJoin(
                testbed, PSJPartitioner(8, seed=1),
                workers=2, parallel_backend="thread",
                execution=Execution(timeout=0.05),
            )
            with pytest.raises(ParallelExecutionError) as excinfo:
                join.run()
        assert excinfo.value.kind == "timeout"
        message = str(excinfo.value)
        assert "cancelled" in message and "abandoned" in message

    def test_queued_futures_are_cancelled_not_abandoned(self):
        import threading

        from repro.parallel.executor import ThreadBackend

        release = threading.Event()
        started = []

        def slow(spec):
            started.append(spec)
            release.wait(5.0)
            return spec

        backend = ThreadBackend(1)  # one worker: later shards stay queued
        try:
            with pytest.raises(ParallelExecutionError) as excinfo:
                backend.run(slow, list(range(4)), timeout=0.05)
        finally:
            release.set()
        # One shard was running (abandoned); the three queued behind the
        # single worker were cancelled before ever starting.
        assert excinfo.value.kind == "timeout"
        assert "3 queued shard(s) cancelled" in str(excinfo.value)
        assert "1 running shard(s) abandoned" in str(excinfo.value)
        assert len(started) == 1

    def test_timeout_is_a_batch_deadline_not_per_shard(self):
        import time as time_module

        from repro.parallel.executor import ThreadBackend

        def takes_a_while(spec):
            time_module.sleep(0.08)
            return spec

        backend = ThreadBackend(1)
        # Three sequential 0.08s shards fit a 2s batch budget but would
        # each individually violate a 0.1s per-shard wait if the deadline
        # (wrongly) restarted per future.
        results = backend.run(takes_a_while, list(range(3)), timeout=2.0)
        assert results == [0, 1, 2]
        with pytest.raises(ParallelExecutionError) as excinfo:
            backend.run(takes_a_while, list(range(3)), timeout=0.1)
        assert excinfo.value.kind == "timeout"

    def test_worker_death_kind_on_broken_pool(self):
        from repro.parallel.executor import ProcessBackend

        if not ProcessBackend(2).available():
            pytest.skip("process backend unavailable in this sandbox")
        # Must be a module-level function: the pool pickles it by
        # reference when shipping work to the child.
        backend = ProcessBackend(2)
        with pytest.raises(ParallelExecutionError) as excinfo:
            backend.run(_exit_in_worker, list(range(2)), timeout=30.0)
        assert excinfo.value.kind == "worker_death"


def _exit_in_worker(spec):
    import os as os_module

    os_module._exit(86)  # noqa: SLF001 — simulates an OOM-killed worker
