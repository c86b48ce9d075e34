"""Supervised process pools: track, retry, replay, rebuild.

``concurrent.futures.ProcessPoolExecutor`` treats one killed child as
fatal: every outstanding future raises ``BrokenProcessPool`` and the
executor is unusable.  For a database build that fans a scan or a set of
threshold runs across cores, that turns one OOM-killed worker into a
lost database.  :class:`SupervisedPool` keeps per-task completion state
outside the executor, so a broken pool is rebuilt (up to a bounded
number of times) and only the tasks that had not finished are replayed;
a task that raises an ordinary exception is retried with deterministic
exponential backoff.

Counters (through the :mod:`repro.obs` registry handed in):

=============================== ==========================================
``resilience.retries``           task re-executions, any cause
``resilience.task_failures``     tasks that raised an ordinary exception
``resilience.pool_rebuilds``     executor reconstructions after a break
``resilience.tasks_replayed``    unfinished tasks resubmitted on rebuild
``resilience.tasks_completed``   tasks that produced a result
=============================== ==========================================
"""

from __future__ import annotations

import time
from concurrent.futures import as_completed, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..obs import NULL_METRICS
from .retry import backoff_delay

__all__ = ["RetryPolicy", "PoolFailedError", "SupervisedPool"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on how hard a :class:`SupervisedPool` fights back.

    ``max_task_retries`` bounds re-executions of one task after ordinary
    exceptions; ``max_pool_rebuilds`` bounds executor reconstructions
    over the pool's lifetime (a deterministic crasher exhausts this
    rather than looping forever).
    """

    max_task_retries: int = 3
    max_pool_rebuilds: int = 2
    backoff_seconds: float = 0.05
    backoff_max_seconds: float = 1.0

    def backoff(self, attempt: int) -> float:
        return backoff_delay(attempt, self.backoff_seconds,
                             self.backoff_max_seconds)


class PoolFailedError(RuntimeError):
    """Retries/rebuilds exhausted; the remaining tasks cannot complete."""


class SupervisedPool:
    """Run ``fn`` over tasks on a process pool that survives dead workers.

    Parameters
    ----------
    fn:
        Picklable callable applied to each task (with a ``fork`` context
        it may also read module globals inherited from the parent, the
        idiom :class:`~repro.core.multiproc.MultiprocessSolver` uses).
    max_workers / mp_context:
        Passed through to :class:`ProcessPoolExecutor`.  The context is
        re-used when the pool is rebuilt, so forked children re-inherit
        whatever globals the parent still holds.
    policy:
        :class:`RetryPolicy`; defaults are deliberately conservative.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` (or scoped view); counters
        land under ``resilience.*``.
    """

    def __init__(self, fn, max_workers: int, mp_context=None,
                 policy: RetryPolicy | None = None, metrics=None,
                 sleep=time.sleep):
        self._fn = fn
        self._max_workers = max(int(max_workers), 1)
        self._context = mp_context
        self.policy = policy if policy is not None else RetryPolicy()
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self._sleep = sleep
        self._pool: ProcessPoolExecutor | None = None
        #: Lifetime pool reconstructions (bounded by the policy).
        self.rebuilds = 0

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ map

    def map(self, tasks, on_result=None) -> list:
        """Apply ``fn`` to every task; returns results in task order.

        ``on_result(index, result)`` fires as each task first completes
        (in completion order) — checkpointing callers persist partial
        progress there, so work finished before a crash survives it.
        """
        tasks = list(tasks)
        results: list = [None] * len(tasks)
        pending = set(range(len(tasks)))
        failures = [0] * len(tasks)
        while pending:
            try:
                self._run_round(tasks, results, pending, failures, on_result)
            except BrokenProcessPool:
                self._rebuild(len(pending))
        return results

    # ------------------------------------------------------------ internals

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._max_workers, mp_context=self._context
            )
        return self._pool

    def _run_round(self, tasks, results, pending, failures, on_result):
        """One submit-and-drain pass over every still-pending task."""
        pool = self._ensure_pool()
        futures = {pool.submit(self._fn, tasks[i]): i for i in sorted(pending)}
        for future in as_completed(futures):
            i = futures[future]
            try:
                result = future.result()
            except BrokenProcessPool:
                raise
            except Exception as exc:
                self._record_failure(i, failures, exc)
                continue  # stays pending; re-submitted next round
            results[i] = result
            pending.discard(i)
            self.metrics.inc("resilience.tasks_completed")
            if on_result is not None:
                on_result(i, result)

    def _record_failure(self, i, failures, exc) -> None:
        failures[i] += 1
        self.metrics.inc("resilience.task_failures")
        self.metrics.inc("resilience.retries")
        if failures[i] > self.policy.max_task_retries:
            raise PoolFailedError(
                f"task {i} failed {failures[i]} times "
                f"(max_task_retries={self.policy.max_task_retries}): {exc!r}"
            ) from exc
        self._sleep(self.policy.backoff(failures[i]))

    def _rebuild(self, n_pending: int) -> None:
        """Replace a broken executor and account for the replayed tasks."""
        self.rebuilds += 1
        if self.rebuilds > self.policy.max_pool_rebuilds:
            raise PoolFailedError(
                f"process pool broke {self.rebuilds} times "
                f"(max_pool_rebuilds={self.policy.max_pool_rebuilds}); "
                f"{n_pending} tasks incomplete"
            )
        self.metrics.inc("resilience.pool_rebuilds")
        self.metrics.inc("resilience.tasks_replayed", n_pending)
        self.metrics.inc("resilience.retries", n_pending)
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._sleep(self.policy.backoff(self.rebuilds))
