"""Process worker pool: bounded fan-out with graceful serial fallback.

The repo's workloads are embarrassingly parallel (independent seeds,
independent sweep cells), so the farm is deliberately simple -- but the
failure handling is not optional:

- **bounded backpressure**: at most ``2 * jobs`` tasks are in flight,
  so a million-cell sweep never materializes a million pickled futures;
- **no pool that cannot win**: one usable CPU, or a batch cheaper than
  the worker spawns, runs serially;
- **graceful degradation**: anything that makes the pool unusable --
  unpicklable closures, a fork-bombed machine killing workers, a
  missing ``multiprocessing`` primitive in exotic sandboxes -- downgrades
  to the serial path instead of failing the run.  Parallelism is an
  optimization, never a correctness dependency.

Results are returned **in submission order** regardless of completion
order, which is what makes ``jobs=N`` bit-for-bit equivalent to
``jobs=1`` for deterministic task functions.  Each task also yields a
:class:`TaskTelemetry` record (wall time, worker pid, how it ran) so
callers can report where the time went.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.injector import maybe_hit
from repro.obs import events as obs_events
from repro.obs.registry import Histogram, get_registry
from repro.runtime.retry import DeadlineExceededError, remaining_budget

_TASKS_HELP = "Pool tasks completed by execution mode (parallel/serial)"
_TASK_SECONDS_HELP = "Per-task wall time in the worker pool"
_FALLBACKS_HELP = (
    "Pool runs downgraded to serial execution by reason "
    "(single-core/cheap-tasks)"
)

#: Rough cost of standing up one pool worker (fork/spawn + imports).
#: A parallel run only pays off when the serial work it displaces
#: exceeds this per worker; measured ~0.1-0.3 s for this codebase's
#: import graph, kept conservative so borderline runs stay parallel.
SPAWN_COST_SECONDS = 0.05


def _fall_back(reason: str, tasks: int, workers: int) -> None:
    """Record one pool-to-serial downgrade (event + counter)."""
    get_registry().counter(
        "repro_pool_fallbacks_total", _FALLBACKS_HELP, reason=reason
    ).inc()
    obs_events.emit(
        "pool.fallback", reason=reason, tasks=tasks, workers=workers
    )


def _observe_task(record: "TaskTelemetry") -> None:
    """Mirror one task's telemetry onto the shared metrics registry."""
    registry = get_registry()
    registry.counter(
        "repro_pool_tasks_total",
        _TASKS_HELP,
        mode="parallel" if record.parallel else "serial",
    ).inc()
    registry.histogram(
        "repro_pool_task_seconds", _TASK_SECONDS_HELP
    ).observe(record.wall_seconds)


@dataclass
class TaskTelemetry:
    """How one task executed."""

    index: int
    wall_seconds: float
    worker: int  # pid of the process that ran it
    parallel: bool  # False when the serial path (or fallback) ran it
    cache: str = "none"  # "hit" / "miss" / "uncached" / "none"
    batched: bool = False  # True when a batch kernel group solved it

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "wall_seconds": self.wall_seconds,
            "worker": self.worker,
            "parallel": self.parallel,
            "cache": self.cache,
            "batched": self.batched,
        }


def _run_timed(fn: Callable[[Any], Any], item: Any) -> Tuple[Any, float, int]:
    """Worker-side wrapper: result + wall time + pid travel together."""
    # Chaos hook: this wrapper only ever runs inside a pool worker, so
    # it is the one place a "crash"/"hang the worker" fault can fire
    # without taking the parent down (docs/ROBUSTNESS.md).
    maybe_hit("pool.task")
    start = time.perf_counter()
    result = fn(item)
    return result, time.perf_counter() - start, os.getpid()


def _run_serial(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    indices: Sequence[int],
    results: List[Any],
    telemetry: List[Optional[TaskTelemetry]],
    deadline: Optional[float] = None,
) -> None:
    for index in indices:
        remaining_budget(deadline)  # raises DeadlineExceededError when spent
        start = time.perf_counter()
        results[index] = fn(items[index])
        telemetry[index] = TaskTelemetry(
            index=index,
            wall_seconds=time.perf_counter() - start,
            worker=os.getpid(),
            parallel=False,
        )
        _observe_task(telemetry[index])


def run_tasks(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Tuple[List[Any], List[TaskTelemetry]]:
    """Apply ``fn`` to every item, farming across ``jobs`` processes.

    Returns ``(results, telemetry)`` with both lists in submission
    order.  ``jobs`` of ``None``/``0``/``1`` runs serially in-process.

    ``deadline`` is an absolute ``time.monotonic()`` bound on the whole
    call: once it passes, the run raises
    :class:`~repro.runtime.retry.DeadlineExceededError` -- from the
    serial loop between tasks, or from the pool path with work still in
    flight (the pool is abandoned, not joined: a wedged worker must not
    hold the caller's answer hostage).  Blowing the deadline never falls
    back to serial -- nobody is waiting for those results anymore.

    The pool is declined when it cannot win: with one usable CPU, or
    when a serial probe of the first task shows the whole batch costs
    less than spawning the workers would.  Each downgrade emits a
    ``pool.fallback`` event and bumps ``repro_pool_fallbacks_total``.

    Exceptions raised by ``fn`` itself propagate unchanged -- a wrong
    task must fail loudly, only *pool infrastructure* failures degrade
    to serial.
    """
    items = list(items)
    results: List[Any] = [None] * len(items)
    telemetry: List[Optional[TaskTelemetry]] = [None] * len(items)
    workers = int(jobs or 1)
    if workers <= 1 or len(items) <= 1:
        _run_serial(fn, items, range(len(items)), results, telemetry, deadline)
        return results, telemetry  # type: ignore[return-value]

    affinity = getattr(os, "sched_getaffinity", None)
    if (len(affinity(0)) if affinity else os.cpu_count() or 1) <= 1:
        # Worker processes would time-share one usable core (taskset
        # and cpusets shrink the affinity set below cpu_count()).
        _fall_back("single-core", len(items), workers)
        _run_serial(fn, items, range(len(items)), results, telemetry, deadline)
        return results, telemetry  # type: ignore[return-value]
    # Probe the first task serially; if the remaining work costs less
    # than amortizing the worker spawns, stay serial.
    _run_serial(fn, items, [0], results, telemetry, deadline)
    probe_wall = telemetry[0].wall_seconds  # type: ignore[union-attr]
    rest = len(items) - 1
    if probe_wall * rest < SPAWN_COST_SECONDS * min(workers, rest):
        _fall_back("cheap-tasks", len(items), workers)
        _run_serial(
            fn, items, range(1, len(items)), results, telemetry, deadline
        )
        return results, telemetry  # type: ignore[return-value]

    pending_indices = list(range(1, len(items)))
    max_in_flight = 2 * workers
    pool: Optional[ProcessPoolExecutor] = None
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
        in_flight: Dict[Any, int] = {}
        next_up = 1
        while next_up < len(items) or in_flight:
            while next_up < len(items) and len(in_flight) < max_in_flight:
                future = pool.submit(_run_timed, fn, items[next_up])
                in_flight[future] = next_up
                next_up += 1
            remaining = remaining_budget(deadline)  # raises once spent
            done, _ = wait(
                in_flight, timeout=remaining, return_when=FIRST_COMPLETED
            )
            if not done:
                raise DeadlineExceededError(
                    f"deadline exceeded with {len(in_flight)} tasks in flight"
                )
            for future in done:
                index = in_flight.pop(future)
                value, wall, pid = future.result()
                results[index] = value
                telemetry[index] = TaskTelemetry(
                    index=index,
                    wall_seconds=wall,
                    worker=pid,
                    parallel=True,
                )
                _observe_task(telemetry[index])
                pending_indices.remove(index)
        pool.shutdown(wait=True)
    except Exception as error:
        # Whatever went wrong, never *join* the failed pool: a wedged
        # worker would block this thread indefinitely.  Abandon it
        # (cancel queued work, reap workers asynchronously) and move on.
        if pool is not None:
            _abandon_pool(pool)
        if isinstance(error, DeadlineExceededError) or _is_task_error(error):
            raise
        # Pool infrastructure failed (pickling, broken workers, sandbox
        # without sem_open, ...): finish the remaining tasks serially so
        # the caller still gets complete results.
        _run_serial(
            fn, items, list(pending_indices), results, telemetry, deadline
        )
    return results, telemetry  # type: ignore[return-value]


def _abandon_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a failed pool down without waiting on its workers."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - best-effort teardown
        pass


def _is_task_error(error: BaseException) -> bool:
    """Did ``fn`` itself raise (propagate) vs the pool machinery (degrade)?

    Misclassifying a user error as infrastructural is safe: the serial
    fallback re-runs the task and raises the same error from the
    parent.  Misclassifying the other way would turn a recoverable pool
    failure into a crashed run, so the infrastructural set is generous:
    broken pools, pickling failures (lambdas/closures raise
    PicklingError or AttributeError at submission), OS-level failures
    and sandboxes lacking multiprocessing primitives.
    """
    import pickle
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(
        error,
        (
            BrokenProcessPool,
            pickle.PicklingError,
            AttributeError,
            OSError,
            ImportError,
        ),
    ):
        return False
    if isinstance(error, TypeError) and "pickle" in str(error).lower():
        return False
    return True


def summarize_telemetry(telemetry: Sequence[TaskTelemetry]) -> Dict[str, Any]:
    """Roll a telemetry list up into the dict the CLI/benchmarks print.

    Besides the aggregate totals, the summary reports p50/p95 per-task
    wall time (estimated through an :class:`~repro.obs.registry.Histogram`
    with the standard exponential time buckets) so a single slow task
    is visible next to the mean.
    """
    records = [t for t in telemetry if t is not None]
    workers = sorted({t.worker for t in records})
    cache_counts: Dict[str, int] = {}
    walls = Histogram()
    for record in records:
        cache_counts[record.cache] = cache_counts.get(record.cache, 0) + 1
        walls.observe(record.wall_seconds)
    return {
        "tasks": len(records),
        "parallel_tasks": sum(1 for t in records if t.parallel),
        "serial_tasks": sum(1 for t in records if not t.parallel),
        "workers": workers,
        "task_seconds": sum(t.wall_seconds for t in records),
        "p50_task_seconds": walls.quantile(0.50),
        "p95_task_seconds": walls.quantile(0.95),
        "cache": cache_counts,
    }
