"""Execution backends: the one fan-out of the package.

Every fan-out — partition workers (:mod:`repro.parallel.engine`) and
database shards (:mod:`repro.dist.coordinator`) — runs a callable over a
list of tasks through :meth:`ExecutionBackend.run`.  ``serial`` runs the
tasks in-process in order; ``thread`` uses a ``ThreadPoolExecutor``
(useful when the work releases the GIL — the numpy kernel, a file, a
worker pool of its own — and as a sanity backend with zero setup cost);
``process`` uses a ``ProcessPoolExecutor``, the backend that actually
scales CPU-bound signature comparison across cores.

Failures are normalized: a task that exceeds the batch timeout, a pool
whose workers died, or a backend that cannot start on this platform all
surface as :class:`~repro.errors.ParallelExecutionError` (or fall back
to ``serial`` where that is safe), never as backend-specific exceptions
like ``BrokenProcessPool``.  A task that raises lets the tasks already
started finish, and then its error — the first in task order —
propagates unchanged.
"""

from __future__ import annotations

import concurrent.futures
import math
import threading
import time
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Sequence

from ..errors import ConfigurationError, ParallelExecutionError

__all__ = [
    "BACKENDS",
    "Execution",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "check_timeout",
    "resolve_backend",
]

BACKENDS = ("serial", "thread", "process")


def check_timeout(seconds, name: str = "timeout") -> None:
    """Raise :class:`ConfigurationError` unless ``seconds`` is ``None``
    or a wait a backend can time: finite seconds > 0, never a ``bool``."""
    if seconds is not None and (
        isinstance(seconds, bool)
        or not isinstance(seconds, Real)
        or not 0 < seconds < math.inf
    ):
        raise ConfigurationError(
            f"{name} must be None or finite seconds > 0, got {seconds!r}"
        )


@dataclass(frozen=True)
class Execution:
    """What the query service sets for one join, read only by
    :func:`repro.parallel.engine.run_parallel_join`: the workers' batch
    ``timeout`` and the ``hook`` that sees each ``ShardSpec`` before
    dispatch (the chaos injector's delays, I/O faults and kills)."""

    timeout: "float | None" = None
    hook: "Callable | None" = None

    def __post_init__(self):
        check_timeout(self.timeout)
        if self.hook is not None and not callable(self.hook):
            raise ConfigurationError(
                f"hook must be None or callable, got {self.hook!r}"
            )


class ExecutionBackend:
    """Runs ``fn`` over a batch of tasks and returns the results in order."""

    name = "abstract"

    def available(self) -> bool:
        """Whether this backend can start on the current platform."""
        return True

    def run(
        self, fn: Callable, tasks: Sequence, timeout: float | None = None
    ) -> list:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process, sequential execution.

    The zero-dependency default: same task function, no concurrency, no
    pickling.  Timeouts are not enforceable without preemption and are
    ignored here (documented behaviour); a raising task stops the batch.
    """

    name = "serial"

    def run(
        self, fn: Callable, tasks: Sequence, timeout: float | None = None
    ) -> list:
        return [fn(task) for task in tasks]


class _PoolBackend(ExecutionBackend):
    """The one submit/collect loop of the executor-pool backends."""

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ConfigurationError(
                f"need >= 1 worker, got {max_workers}"
            )
        self.max_workers = max_workers

    def _make_pool(self, fn: Callable):
        raise NotImplementedError

    def run(
        self, fn: Callable, tasks: Sequence, timeout: float | None = None
    ) -> list:
        """Run ``fn`` over every task; ``timeout`` is a batch deadline.

        The deadline starts when the batch is dispatched and covers the
        whole batch (all tasks run concurrently, so one budget bounds the
        caller's wait).  On expiry every not-yet-started future is
        cancelled and running tasks are *abandoned* — see
        :class:`~repro.errors.ParallelExecutionError` for the exact
        semantics per backend.  A broken pool or a raising task instead
        waits for the pool to wind down, so no worker process outlives
        the error.
        """
        try:
            pool = self._make_pool(fn)
        except Exception as error:  # noqa: BLE001 — platform-dependent startup
            raise ParallelExecutionError(
                f"could not start {self.name} backend: {error}",
                kind="startup",
            ) from error
        wait = False
        try:
            futures = [pool.submit(fn, task) for task in tasks]
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            results = []
            for index, future in enumerate(futures):
                remaining = None
                if deadline is not None:
                    # A wait longer than the platform can time is a wait
                    # without end; past TIMEOUT_MAX it raises instead.
                    remaining = min(max(0.0, deadline - time.monotonic()),
                                    threading.TIMEOUT_MAX)
                try:
                    results.append(future.result(timeout=remaining))
                except concurrent.futures.TimeoutError:
                    cancelled = sum(
                        1 for pending in futures[index:] if pending.cancel()
                    )
                    abandoned = len(futures) - index - cancelled
                    raise ParallelExecutionError(
                        f"shard {index} exceeded its {timeout:.3f}s timeout "
                        f"on the {self.name} backend ({cancelled} queued "
                        f"shard(s) cancelled, {abandoned} running shard(s) "
                        "abandoned — they finish in the background but "
                        "their results are discarded)",
                        kind="timeout",
                    ) from None
                except concurrent.futures.BrokenExecutor as error:
                    wait = True
                    raise ParallelExecutionError(
                        f"{self.name} backend worker died: {error}",
                        kind="worker_death",
                    ) from error
                except BaseException:
                    wait = True
                    raise
            return results
        finally:
            # wait=True joins the pool's threads or processes: a broken
            # process pool terminates and reaps every surviving child
            # before its manager thread exits.
            pool.shutdown(wait=wait, cancel_futures=True)


class ThreadBackend(_PoolBackend):
    name = "thread"

    def _make_pool(self, fn: Callable):
        # Threads are named after the subpackage whose work they run —
        # setjoin-parallel for partition workers, setjoin-dist for shards.
        module = getattr(fn, "__module__", None) or ""
        package = module.rpartition(".")[0].rpartition(".")[2]
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix=f"setjoin-{package}",
        )


class ProcessBackend(_PoolBackend):
    """Worker processes via ``ProcessPoolExecutor``.

    Prefers the ``fork`` start method where the platform offers it (the
    children inherit ``sys.path`` and loaded modules, so shard dispatch
    is cheap); falls back to the platform default otherwise.
    """

    name = "process"

    @staticmethod
    def _context():
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def available(self) -> bool:
        # Sandboxes without a working semaphore implementation (no
        # /dev/shm, seccomp'd sem_open) fail at pool construction; probe
        # cheaply so callers can fall back to serial instead of dying.
        try:
            self._context().Semaphore(1)
            return True
        except Exception:  # noqa: BLE001 — any failure means "unavailable"
            return False

    def _make_pool(self, fn: Callable):
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.max_workers, mp_context=self._context()
        )


def resolve_backend(
    name: str, workers: int
) -> tuple[ExecutionBackend, str | None]:
    """Instantiate the named backend, falling back to serial when it
    cannot run here.

    Returns ``(backend, fallback_reason)`` — ``fallback_reason`` is
    ``None`` when the requested backend was used, otherwise a short
    human-readable explanation of why serial was substituted.
    """
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown parallel backend {name!r}; expected one of {BACKENDS}"
        )
    if name == "serial" or workers <= 1:
        return SerialBackend(), None
    if name == "thread":
        return ThreadBackend(workers), None
    backend = ProcessBackend(workers)
    if backend.available():
        return backend, None
    return (
        SerialBackend(),
        "process backend unavailable on this platform "
        "(multiprocessing semaphores cannot be created); ran serially",
    )
