"""Retry layer + circuit breaker (repro.service.retry).

Includes the retry-correctness contract: a shard that fails once and
then succeeds on retry yields *bit-identical* pairs and x/y accounting
versus a run that never failed.
"""

import random

import pytest

from repro.core.operator import SetContainmentJoin, Testbed
from repro.core.psj import PSJPartitioner
from repro.errors import ConfigurationError, ParallelExecutionError
from repro.obs.registry import MetricsRegistry
from repro.parallel.executor import Execution
from repro.service.retry import (
    DEGRADATION_ORDER,
    BackendLadder,
    CircuitBreaker,
    RetryPolicy,
    run_with_retries,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestRetryPolicy:
    def test_delay_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, jitter=0.0,
                             max_delay=10.0)
        rng = random.Random(0)
        assert policy.delay(1, rng) == pytest.approx(0.1)
        assert policy.delay(2, rng) == pytest.approx(0.2)
        assert policy.delay(3, rng) == pytest.approx(0.4)

    def test_delay_capped_at_max(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, jitter=0.0,
                             max_delay=2.5)
        assert policy.delay(5, random.Random(0)) == pytest.approx(2.5)

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.5)
        rng = random.Random(7)
        for attempt in range(1, 20):
            delay = policy.delay(attempt, rng)
            assert 0.5 <= delay <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError, match="jitter"):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def breaker(self, clock, threshold=3, cooldown=5.0):
        return CircuitBreaker("process", failure_threshold=threshold,
                              cooldown=cooldown, clock=clock,
                              registry=MetricsRegistry())

    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allows()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allows()

    def test_success_resets_the_failure_streak(self):
        breaker = self.breaker(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allows()  # streak restarted, threshold not reached

    def test_half_open_after_cooldown_then_close_on_success(self):
        clock = FakeClock()
        breaker = self.breaker(clock, cooldown=5.0)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allows()
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allows()  # one probe goes through
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.breaker(clock, cooldown=5.0)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allows()
        breaker.record_failure()  # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(4.9)
        assert not breaker.allows()  # cooldown restarted from the reopen

    def test_trip_counter_published(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        breaker = CircuitBreaker("thread", failure_threshold=1,
                                 clock=clock, registry=registry)
        breaker.record_failure()
        snapshot = registry.snapshot()
        assert snapshot["setjoin_service_breaker_thread_trips_total"][
            "value"] == 1
        assert snapshot["setjoin_service_breaker_thread_state"]["value"] == 2


class TestBackendLadder:
    def test_degradation_chain_bottoms_out_at_serial(self):
        assert DEGRADATION_ORDER["process"] == "thread"
        assert DEGRADATION_ORDER["thread"] == "serial"
        assert DEGRADATION_ORDER["serial"] is None

    def test_prefers_the_configured_backend(self):
        ladder = BackendLadder("process", clock=FakeClock(),
                               registry=MetricsRegistry())
        assert ladder.select() == "process"

    def test_open_breaker_degrades_one_rung(self):
        registry = MetricsRegistry()
        ladder = BackendLadder("process", failure_threshold=2,
                               clock=FakeClock(), registry=registry)
        ladder.record_failure("process")
        ladder.record_failure("process")
        assert ladder.select() == "thread"
        assert registry.snapshot()[
            "setjoin_service_backend_degraded_total"]["value"] == 1

    def test_degrades_all_the_way_to_serial(self):
        ladder = BackendLadder("process", failure_threshold=1,
                               clock=FakeClock(), registry=MetricsRegistry())
        ladder.record_failure("process")
        ladder.record_failure("thread")
        assert ladder.select() == "serial"

    def test_recovered_breaker_restores_the_preferred_backend(self):
        clock = FakeClock()
        ladder = BackendLadder("process", failure_threshold=1, cooldown=5.0,
                               clock=clock, registry=MetricsRegistry())
        ladder.record_failure("process")
        assert ladder.select() == "thread"
        clock.advance(5.0)
        assert ladder.select() == "process"  # half-open probe
        ladder.record_success("process")
        assert ladder.select() == "process"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            BackendLadder("gpu", registry=MetricsRegistry())


class TestRunWithRetries:
    def test_transient_failure_then_success(self):
        calls = []
        sleeps = []

        def operation(backend):
            calls.append(backend)
            if len(calls) < 3:
                raise ParallelExecutionError("worker died",
                                             kind="worker_death")
            return "answer"

        result = run_with_retries(
            operation, RetryPolicy(max_attempts=3, jitter=0.0),
            backend="thread", sleep=sleeps.append, rng=random.Random(0),
        )
        assert result == "answer"
        assert calls == ["thread"] * 3
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # backoff grew

    def test_exhausted_attempts_reraise_the_last_error(self):
        def operation(backend):
            raise ParallelExecutionError("still broken")

        with pytest.raises(ParallelExecutionError, match="still broken"):
            run_with_retries(operation, RetryPolicy(max_attempts=2),
                             backend="serial", sleep=lambda s: None)

    def test_non_transient_errors_propagate_immediately(self):
        calls = []

        def operation(backend):
            calls.append(backend)
            raise ConfigurationError("planner bug")

        with pytest.raises(ConfigurationError):
            run_with_retries(operation, RetryPolicy(max_attempts=5),
                             backend="serial", sleep=lambda s: None)
        assert len(calls) == 1

    def test_deadline_cuts_the_retry_loop(self):
        clock = FakeClock()

        def operation(backend):
            clock.advance(0.9)
            raise ParallelExecutionError("slow failure")

        with pytest.raises(ParallelExecutionError):
            run_with_retries(
                operation,
                RetryPolicy(max_attempts=10, base_delay=0.2, jitter=0.0),
                backend="serial", deadline=1.0, clock=clock,
                sleep=lambda s: None, rng=random.Random(0),
            )
        # One attempt consumed 0.9s of a 1.0s budget; the 0.2s pause
        # would overrun it, so no second attempt happened.
        assert clock.now == pytest.approx(0.9)

    def test_on_retry_hook_sees_each_backoff(self):
        seen = []

        def operation(backend):
            if len(seen) < 2:
                raise ParallelExecutionError("flaky")
            return "ok"

        run_with_retries(
            operation, RetryPolicy(max_attempts=3),
            backend="serial", sleep=lambda s: None,
            on_retry=lambda attempt, error: seen.append(attempt),
        )
        assert seen == [1, 2]

    def test_ladder_degrades_between_attempts(self):
        ladder = BackendLadder("thread", failure_threshold=1,
                               clock=FakeClock(), registry=MetricsRegistry())
        calls = []

        def operation(backend):
            calls.append(backend)
            if backend == "thread":
                raise ParallelExecutionError("pool broke")
            return "ok"

        result = run_with_retries(operation, RetryPolicy(max_attempts=3),
                                  ladder=ladder, sleep=lambda s: None)
        assert result == "ok"
        assert calls == ["thread", "serial"]


class FailShardZeroOnce:
    """Shard hook: arm a first-page I/O fault on shard 0, first batch only."""

    def __init__(self):
        self.batches = 0

    def __call__(self, spec):
        if spec.index == 0:
            self.batches += 1
            if self.batches == 1:
                spec.fail_after = 0


class TestRetriedJoinIsBitIdentical:
    """The satellite contract: fail-once-then-succeed ≡ never-failed."""

    @pytest.fixture()
    def loaded_testbed(self, tmp_path, small_workload):
        lhs, rhs = small_workload
        with Testbed(path=str(tmp_path / "retry.db")) as testbed:
            testbed.load(lhs, rhs)
            yield testbed

    def test_retry_success_matches_clean_run_exactly(self, loaded_testbed):
        def clean_run():
            return SetContainmentJoin(
                loaded_testbed, PSJPartitioner(8, seed=1),
                workers=2, parallel_backend="thread",
            ).run()

        expected_pairs, expected_metrics = clean_run()

        hook = FailShardZeroOnce()
        attempts = []

        def operation(backend):
            attempts.append(backend)
            return SetContainmentJoin(
                loaded_testbed, PSJPartitioner(8, seed=1),
                workers=2, parallel_backend=backend,
                execution=Execution(hook=hook),
            ).run()

        pairs, metrics = run_with_retries(
            operation, RetryPolicy(max_attempts=3, base_delay=0.001),
            backend="thread", sleep=lambda s: None, rng=random.Random(0),
        )
        # The first attempt really failed and was retried.
        assert len(attempts) == 2
        assert hook.batches == 2
        # Bit-identical pairs and exact x/y accounting vs the clean run.
        assert pairs == expected_pairs
        assert metrics.signature_comparisons == \
            expected_metrics.signature_comparisons
        assert metrics.replicated_signatures == \
            expected_metrics.replicated_signatures
        assert metrics.num_partitions == expected_metrics.num_partitions

    def test_unretried_failure_stays_typed(self, loaded_testbed):
        hook = FailShardZeroOnce()

        def operation(backend):
            return SetContainmentJoin(
                loaded_testbed, PSJPartitioner(8, seed=1),
                workers=2, parallel_backend=backend,
                execution=Execution(hook=hook),
            ).run()

        with pytest.raises(ParallelExecutionError, match="InjectedIOError"):
            run_with_retries(operation, RetryPolicy(max_attempts=1),
                             backend="thread", sleep=lambda s: None)
