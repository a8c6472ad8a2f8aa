"""Cached, parallel solve execution: the runtime's front door.

Two entry points:

- :func:`solve_cached` -- one solve through the schedule cache;
- :func:`solve_many` -- a list of ``(problem, method, seed)`` tasks,
  deduplicated by content fingerprint, cache-checked in the parent,
  and only the *unique misses* farmed to the worker pool.

The ordering of concerns is what makes ``jobs=N`` and warm-vs-cold
cache bit-for-bit equivalent to a plain serial loop of
:func:`repro.core.solver.solve` calls:

1. fingerprints are computed in the parent (deterministic, cheap);
2. duplicate tasks collapse onto one representative solve -- for
   deterministic methods a sweep's seed axis collapses entirely;
3. cache hits are rehydrated from stored JSON payloads, which were
   themselves produced by a solve of the *same fingerprint* -- identical
   schedules by construction;
4. misses are solved (in the pool or serially -- the solver is
   deterministic either way) and their payloads fan back out to every
   duplicate index in submission order.

Solves whose inputs cannot be fingerprinted
(:class:`~repro.runtime.fingerprint.UncacheableError`) bypass the cache
but still run -- caching is an optimization, never an eligibility test.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.batched.batch import batchable, family_of
from repro.batched.greedy import solve_batch
from repro.core.problem import SchedulingProblem
from repro.core.solver import SolveResult, solve
from repro.faults.injector import maybe_hit
from repro.obs import events as obs_events
from repro.obs import tracing
from repro.obs.registry import get_registry
from repro.runtime.cache import (
    ScheduleCache,
    payload_to_result,
    result_to_payload,
)
from repro.runtime.fingerprint import UncacheableError, solve_fingerprint
from repro.runtime.pool import TaskTelemetry, run_tasks
from repro.runtime.retry import (
    DeadlineExceededError,
    RetryPolicy,
    is_retryable,
    record_exhausted,
    record_retry,
    remaining_budget,
)

#: One unit of work: (problem, method, seed-or-None).
SolveTask = Tuple[SchedulingProblem, str, Optional[int]]

_BATCH_FALLBACK_HELP = (
    "Batched-routing fallbacks to the serial path by reason "
    "(rho/method)"
)

#: Dedup-group callback: ``(fingerprint-or-None, member indices,
#: disposition)`` where disposition is the representative's cache status
#: ("hit"/"miss"/"uncached").  Groups with more than one member are the
#: coalesced duplicates a serving layer wants to count.
GroupCallback = Callable[[Optional[str], List[int], str], None]


def solve_cached(
    problem: SchedulingProblem,
    method: str = "greedy",
    rng: Union[int, None] = None,
    cache: Optional[ScheduleCache] = None,
) -> Tuple[SolveResult, str]:
    """Solve through the cache; returns ``(result, cache_status)``.

    ``cache_status`` is ``"hit"``, ``"miss"`` or ``"uncached"`` (inputs
    that cannot be fingerprinted, or no cache supplied).
    """
    if cache is None:
        return solve(problem, method=method, rng=rng), "uncached"
    try:
        key = solve_fingerprint(problem, method, rng)
    except UncacheableError:
        return solve(problem, method=method, rng=rng), "uncached"
    cached = cache.get_result(key, problem)
    if cached is not None:
        obs_events.emit("runtime.cache_hit", method=method, key=key)
        return cached, "hit"
    result = solve(problem, method=method, rng=rng)
    cache.put_result(key, result)
    return result, "miss"


def _solve_task(task: SolveTask) -> Dict[str, Any]:
    """Worker-side unit: solve and return the JSON payload.

    Returning the serialized payload (rather than the ``SolveResult``)
    keeps the bytes crossing the process boundary identical to the
    bytes a cache entry holds -- so pooled, serial and cached paths all
    rehydrate through the same code.
    """
    problem, method, seed = task
    # Chaos hook: fires wherever the solve actually runs -- a pool
    # worker or the serial in-process path -- so "slow solve" and
    # transient solve-side I/O faults exercise both execution modes.
    maybe_hit("solve", method=method)
    return result_to_payload(solve(problem, method=method, rng=seed))


def solve_many(
    tasks: Sequence[SolveTask],
    jobs: Optional[int] = None,
    cache: Optional[ScheduleCache] = None,
    on_group: Optional[GroupCallback] = None,
    retry: Optional[RetryPolicy] = None,
    deadline: Optional[float] = None,
) -> Tuple[List[SolveResult], List[TaskTelemetry]]:
    """Solve every task; returns results and telemetry in task order.

    Duplicate fingerprints are solved once; ``jobs`` farms the unique
    cache misses across processes.  Results are identical to a serial
    ``[solve(*t) for t in tasks]`` loop for any ``jobs`` and any cache
    temperature.

    ``on_group`` is invoked once per dedup group after the batch
    resolves (see :data:`GroupCallback`); it is how the serving layer
    observes coalescing without re-deriving the fingerprinting here.

    ``retry`` re-runs the *unsolved remainder* after a transient
    infrastructure failure (:func:`repro.runtime.retry.is_retryable`:
    broken pools, injected I/O faults) with exponential
    backoff + seeded jitter; deterministic solver errors are never
    retried.  ``deadline`` (absolute ``time.monotonic()``) bounds the
    whole call including backoff sleeps -- a retry that cannot finish
    inside the budget is not attempted, and
    :class:`~repro.runtime.retry.DeadlineExceededError` propagates
    immediately.
    """
    tasks = list(tasks)
    with tracing.span("solve_many", tasks=len(tasks), jobs=jobs or 1):
        return _solve_many(tasks, jobs, cache, on_group, retry, deadline)


def _solve_many(
    tasks: List[SolveTask],
    jobs: Optional[int],
    cache: Optional[ScheduleCache],
    on_group: Optional[GroupCallback],
    retry: Optional[RetryPolicy],
    deadline: Optional[float],
) -> Tuple[List[SolveResult], List[TaskTelemetry]]:
    results: List[Optional[SolveResult]] = [None] * len(tasks)
    telemetry: List[Optional[TaskTelemetry]] = [None] * len(tasks)

    # Pass 1 (parent): fingerprint, dedup, consult the cache.
    keys: List[Optional[str]] = [None] * len(tasks)
    first_index: Dict[str, int] = {}
    duplicates: Dict[int, List[int]] = {}
    to_solve: List[int] = []
    for index, (problem, method, seed) in enumerate(tasks):
        start = time.perf_counter()
        try:
            key = solve_fingerprint(problem, method, seed)
        except UncacheableError:
            to_solve.append(index)
            continue
        keys[index] = key
        representative = first_index.get(key)
        if representative is not None:
            duplicates.setdefault(representative, []).append(index)
            continue
        first_index[key] = index
        if cache is not None:
            cached = cache.get_result(key, problem)
            if cached is not None:
                results[index] = cached
                telemetry[index] = TaskTelemetry(
                    index=index,
                    wall_seconds=time.perf_counter() - start,
                    worker=_pid(),
                    parallel=False,
                    cache="hit",
                )
                continue
        to_solve.append(index)

    # Pass 2: only the unique, uncached work, under the retry policy --
    # same-shape greedy groups ride the batched kernels, the remainder
    # goes to the worker pool.
    payloads, pool_telemetry = _execute_unique(
        [tasks[i] for i in to_solve], jobs=jobs, retry=retry, deadline=deadline
    )
    for position, index in enumerate(to_solve):
        problem = tasks[index][0]
        payload = payloads[position]
        results[index] = payload_to_result(problem, payload)
        record = pool_telemetry[position]
        key = keys[index]
        telemetry[index] = TaskTelemetry(
            index=index,
            wall_seconds=record.wall_seconds,
            worker=record.worker,
            parallel=record.parallel,
            cache="uncached" if key is None else "miss",
            batched=record.batched,
        )
        if key is not None and cache is not None:
            cache.put(key, payload)

    # Pass 3 (parent): fan representatives back out to duplicates.
    for representative, indices in duplicates.items():
        source = results[representative]
        assert source is not None
        for index in indices:
            start = time.perf_counter()
            problem = tasks[index][0]
            # Rehydrate per-index so duplicate results do not alias one
            # mutable SolveResult (extras dicts are per-caller).
            results[index] = payload_to_result(
                problem, result_to_payload(source)
            )
            telemetry[index] = TaskTelemetry(
                index=index,
                wall_seconds=time.perf_counter() - start,
                worker=_pid(),
                parallel=False,
                cache="hit",
            )
            if cache is not None:
                cache.stats.hits += 1

    assert all(r is not None for r in results)
    if on_group is not None:
        for key, representative in first_index.items():
            indices = [representative] + duplicates.get(representative, [])
            record = telemetry[representative]
            assert record is not None
            on_group(key, indices, record.cache)
        for index, key in enumerate(keys):
            if key is None:
                on_group(None, [index], "uncached")
    for index, (record, task) in enumerate(zip(telemetry, tasks)):
        assert record is not None
        obs_events.emit(
            "runtime.task",
            index=index,
            method=task[1],
            cache=record.cache,
            parallel=record.parallel,
            seconds=record.wall_seconds,
        )
    return results, telemetry  # type: ignore[return-value]


def _batch_fallback(reason: str) -> None:
    get_registry().counter(
        "repro_batched_fallback_total", _BATCH_FALLBACK_HELP, reason=reason
    ).inc()


def _plan_batches(
    tasks: List[SolveTask],
) -> Tuple[List[List[int]], List[int]]:
    """Split unique work into batched groups and serial positions.

    Eligible greedy tasks are grouped by ``(family, slots_per_period)``
    and every group rides the batch kernels, a group of one included:
    the width-1 kernel beats the serial lazy greedy at serving sizes
    (table in ``docs/PERFORMANCE.md``).  A family without a batch kernel
    (:func:`~repro.batched.batch.family_of` is ``None``) solves serially
    by design, not as a degradation, so it counts no fallback.
    """
    groups: Dict[Tuple[str, int], List[int]] = {}
    serial: List[int] = []
    for position, (problem, method, _seed) in enumerate(tasks):
        if method != "greedy":
            _batch_fallback("method")
            serial.append(position)
            continue
        family = family_of(problem)
        if family is None:
            serial.append(position)
            continue
        ok, reason = batchable(problem)
        if not ok:
            _batch_fallback(reason)
            serial.append(position)
            continue
        key = (family, problem.slots_per_period)
        groups.setdefault(key, []).append(position)
    return list(groups.values()), serial


def _run_batched_group(
    group_tasks: List[SolveTask], deadline: Optional[float]
) -> Tuple[List[Dict[str, Any]], List[TaskTelemetry]]:
    """Solve one same-shape group through the batch kernels.

    The chaos hook fires once per member (the same ``solve`` site the
    serial path hits), so injected faults and their retries behave
    identically under batched routing.
    """
    remaining_budget(deadline)  # raises DeadlineExceededError when spent
    start = time.perf_counter()
    for _problem, method, _seed in group_tasks:
        maybe_hit("solve", method=method)
    results = solve_batch([t[0] for t in group_tasks])
    share = (time.perf_counter() - start) / len(group_tasks)
    payloads = [result_to_payload(result) for result in results]
    telemetry = [
        TaskTelemetry(
            index=position,
            wall_seconds=share,
            worker=_pid(),
            parallel=False,
            batched=True,
        )
        for position in range(len(group_tasks))
    ]
    return payloads, telemetry


def _execute_unique(
    tasks: List[SolveTask],
    jobs: Optional[int],
    retry: Optional[RetryPolicy],
    deadline: Optional[float],
) -> Tuple[List[Dict[str, Any]], List[TaskTelemetry]]:
    """Run the unique misses: batched groups first, pool for the rest.

    Both execution styles run under the same retry loop, so a transient
    failure inside a batch kernel group is retried exactly as a pool
    failure would be.
    """
    batched_groups, serial_positions = _plan_batches(tasks)
    payloads: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    telemetry: List[Optional[TaskTelemetry]] = [None] * len(tasks)
    for group in batched_groups:
        group_tasks = [tasks[position] for position in group]
        group_payloads, group_records = _run_with_retry(
            lambda tasks_=group_tasks: _run_batched_group(tasks_, deadline),
            retry=retry,
            deadline=deadline,
        )
        for position, payload, record in zip(
            group, group_payloads, group_records
        ):
            payloads[position] = payload
            telemetry[position] = record
    if serial_positions:
        remainder = [tasks[position] for position in serial_positions]
        pool_payloads, pool_records = _run_with_retry(
            lambda: run_tasks(
                _solve_task, remainder, jobs=jobs, deadline=deadline
            ),
            retry=retry,
            deadline=deadline,
        )
        for position, payload, record in zip(
            serial_positions, pool_payloads, pool_records
        ):
            payloads[position] = payload
            telemetry[position] = record
    assert all(r is not None for r in telemetry)
    return payloads, telemetry  # type: ignore[return-value]


def _run_with_retry(
    runner: Callable[[], Tuple[List[Dict[str, Any]], List[TaskTelemetry]]],
    retry: Optional[RetryPolicy],
    deadline: Optional[float],
) -> Tuple[List[Dict[str, Any]], List[TaskTelemetry]]:
    """Run ``runner`` under the retry policy and deadline.

    Only tier-2 failures (transient infrastructure:
    :func:`~repro.runtime.retry.is_retryable`) are retried, with the
    policy's backoff between attempts.  Three invariants:

    - a deterministic task error propagates on the first attempt;
    - :class:`DeadlineExceededError` is never retried, and a backoff
      sleep that would cross the deadline is not taken -- the transient
      error surfaces instead, annotated as deadline-bounded;
    - the jitter stream is seeded per call, so identical chaos runs
      back off identically.
    """
    attempts = retry.max_attempts if retry is not None else 1
    rng = retry.rng() if retry is not None else None
    attempt = 0
    while True:
        try:
            return runner()
        except DeadlineExceededError:
            raise
        except Exception as error:
            if retry is None or not is_retryable(error):
                raise
            attempt += 1
            if attempt >= attempts:
                record_exhausted("executor", error)
                raise
            delay = retry.backoff(attempt - 1, rng)
            if deadline is not None:
                # remaining_budget raises if the budget is already gone;
                # otherwise refuse a sleep that would cross it.
                remaining = remaining_budget(deadline)
                if remaining is not None and delay >= remaining:
                    record_exhausted("executor", error)
                    raise DeadlineExceededError(
                        f"no budget for retry {attempt} "
                        f"(backoff {delay:.3f}s, remaining {remaining:.3f}s)"
                    ) from error
            record_retry("executor", attempt, error)
            if delay > 0:
                time.sleep(delay)


def _pid() -> int:
    import os

    return os.getpid()
