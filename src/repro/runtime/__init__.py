"""Parallel execution + content-addressed schedule cache.

The runtime subsystem makes the repo's embarrassingly parallel
workloads (Monte-Carlo batches, parameter sweeps, figure grids) scale
with the hardware and stop re-solving identical instances:

- :mod:`repro.runtime.fingerprint` -- deterministic SHA-256 keys for
  ``(problem, method, seed)`` triples (canonical JSON over the
  :mod:`repro.io.serialization` encoders);
- :mod:`repro.runtime.cache` -- in-memory LRU over an atomic on-disk
  store (write-tmp/fsync/rename, the :mod:`repro.io.checkpoint`
  discipline), with hit/miss/eviction counters;
- :mod:`repro.runtime.pool` -- a ``ProcessPoolExecutor`` task farm
  with bounded backpressure and graceful degradation to serial
  execution;
- :mod:`repro.runtime.executor` -- the front door:
  :func:`~repro.runtime.executor.solve_cached` and
  :func:`~repro.runtime.executor.solve_many` (dedup + cache + pool).

Guarantee: for any ``jobs`` and any cache temperature the results are
bit-for-bit identical to a serial loop of
:func:`repro.core.solver.solve` calls (``solve_seconds`` metadata
aside) -- parallelism and caching are optimizations, never semantics.
"""

from repro.runtime.cache import (
    CacheStats,
    ScheduleCache,
    default_cache_dir,
    payload_to_result,
    result_to_payload,
)
from repro.runtime.executor import SolveTask, solve_cached, solve_many
from repro.runtime.fingerprint import (
    RANDOMIZED_METHODS,
    UncacheableError,
    canonical_json,
    problem_to_dict,
    solve_fingerprint,
)
from repro.runtime.pool import (
    TaskTelemetry,
    run_tasks,
    summarize_telemetry,
)

__all__ = [
    "CacheStats",
    "ScheduleCache",
    "default_cache_dir",
    "payload_to_result",
    "result_to_payload",
    "SolveTask",
    "solve_cached",
    "solve_many",
    "RANDOMIZED_METHODS",
    "UncacheableError",
    "canonical_json",
    "problem_to_dict",
    "solve_fingerprint",
    "TaskTelemetry",
    "run_tasks",
    "summarize_telemetry",
]
