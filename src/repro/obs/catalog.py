"""The metric name catalog: every series the instrumented layers emit.

Kept in one place so (a) ``repro metrics`` can pre-register the whole
catalog and emit ``# HELP``/``# TYPE`` metadata for every family even
before traffic arrives, (b) docs/OBSERVABILITY.md has a single source
of truth to mirror, and (c) renames are grep-able diffs, not scavenger
hunts.  Label values are free-form; the label *names* listed here are
the complete set each family uses.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.obs.registry import MetricsRegistry, get_registry

#: (kind, name, label names, help) for every standard series.
STANDARD_METRICS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    # -- solver (core/solver.py, core/greedy.py) -----------------------
    (
        "counter",
        "repro_solve_total",
        ("method",),
        "Completed solves by method",
    ),
    (
        "histogram",
        "repro_solve_seconds",
        ("method",),
        "Solve wall time by method",
    ),
    (
        "counter",
        "repro_greedy_marginal_evals_total",
        ("variant",),
        "Marginal-utility evaluations by solver variant",
    ),
    # -- incremental utility kernels (utility/incremental.py) ----------
    (
        "counter",
        "repro_utility_incremental_ops_total",
        ("family", "op"),
        "Incremental-evaluator operations by family and kind",
    ),
    # -- simulation engine (sim/engine.py) -----------------------------
    (
        "counter",
        "repro_sim_slots_total",
        (),
        "Simulation slots executed",
    ),
    (
        "histogram",
        "repro_sim_slot_seconds",
        (),
        "Per-slot simulation step wall time",
    ),
    (
        "counter",
        "repro_sim_refusals_total",
        (),
        "Activations refused by undercharged nodes",
    ),
    (
        "gauge",
        "repro_sim_slot_utility",
        (),
        "Utility achieved in the most recent simulated slot",
    ),
    # -- spatial coverage index (coverage/spatial.py) -------------------
    (
        "counter",
        "repro_spatial_index_builds_total",
        (),
        "Spatial grid indexes constructed",
    ),
    (
        "counter",
        "repro_spatial_queries_total",
        (),
        "Point queries answered by the index",
    ),
    (
        "counter",
        "repro_spatial_candidates_total",
        (),
        "Candidate sensors examined by indexed queries",
    ),
    (
        "counter",
        "repro_spatial_pruned_total",
        (),
        "Sensors skipped by indexed queries vs. brute force",
    ),
    # -- health monitor (sim/health.py) --------------------------------
    (
        "counter",
        "repro_health_transitions_total",
        ("to",),
        "Node verdict transitions by destination state "
        "(alive/suspect/down/rogue)",
    ),
    # -- self-healing policy (policies/self_healing.py) ----------------
    (
        "counter",
        "repro_selfheal_retries_total",
        ("outcome",),
        "Lost-command retries by outcome (issued/declined)",
    ),
    (
        "counter",
        "repro_selfheal_repairs_total",
        ("outcome",),
        "Schedule repairs by outcome (adopted/skipped)",
    ),
    (
        "counter",
        "repro_selfheal_suppressed_commands_total",
        (),
        "Commands suppressed to latched-rogue nodes",
    ),
    # -- schedule cache (runtime/cache.py) -----------------------------
    (
        "counter",
        "repro_cache_lookups_total",
        ("result",),
        "Schedule cache lookups by result (hit/miss)",
    ),
    (
        "counter",
        "repro_cache_stores_total",
        (),
        "Schedule cache entries written",
    ),
    (
        "counter",
        "repro_cache_evictions_total",
        (),
        "In-memory LRU evictions",
    ),
    (
        "counter",
        "repro_cache_disk_hits_total",
        (),
        "Cache hits served from the directory store",
    ),
    # -- worker pool (runtime/pool.py) ---------------------------------
    (
        "counter",
        "repro_pool_tasks_total",
        ("mode",),
        "Pool tasks completed by execution mode (parallel/serial)",
    ),
    (
        "histogram",
        "repro_pool_task_seconds",
        (),
        "Per-task wall time in the worker pool",
    ),
    (
        "counter",
        "repro_pool_fallbacks_total",
        ("reason",),
        "Pool runs downgraded to serial execution by reason "
        "(single-core/cheap-tasks)",
    ),
    # -- HTTP service (serve/handlers.py, serve/batcher.py) ------------
    (
        "counter",
        "repro_server_requests_total",
        ("endpoint", "status"),
        "HTTP requests by endpoint and status code",
    ),
    (
        "histogram",
        "repro_server_request_seconds",
        ("endpoint",),
        "HTTP request wall time by endpoint",
    ),
    (
        "gauge",
        "repro_server_queue_depth",
        (),
        "Solve requests queued or being batched right now",
    ),
    (
        "histogram",
        "repro_server_batch_size",
        (),
        "Requests per executed batch",
    ),
    (
        "counter",
        "repro_server_coalesced_total",
        (),
        "Requests answered by another in-flight request's solve",
    ),
    (
        "counter",
        "repro_server_cache_fastpath_total",
        (),
        "Requests answered from the cache at admission time",
    ),
    # -- batched solving (batched/greedy.py, runtime/executor.py) ------
    (
        "counter",
        "repro_batched_batches_total",
        ("family",),
        "Batched-greedy batches executed by family",
    ),
    (
        "counter",
        "repro_batched_instances_total",
        ("family",),
        "Instances solved through the batched kernels by family",
    ),
    (
        "counter",
        "repro_batched_kernel_invocations_total",
        ("family",),
        "Vectorized kernel passes issued by family",
    ),
    (
        "histogram",
        "repro_batched_batch_size",
        (),
        "Instances per executed batch",
    ),
    (
        "counter",
        "repro_batched_fallback_total",
        ("reason",),
        "Batched-routing fallbacks to the serial path by reason "
        "(rho/method)",
    ),
    (
        "counter",
        "repro_server_batched_total",
        (),
        "Service solves answered through the batched kernel path",
    ),
    # -- fault injection (faults/injector.py) --------------------------
    (
        "counter",
        "repro_faults_injected_total",
        ("site", "action"),
        "Chaos faults fired by injection site and action",
    ),
    # -- retries (runtime/retry.py) ------------------------------------
    (
        "counter",
        "repro_retry_attempts_total",
        ("site",),
        "Transient-failure retries attempted, by site",
    ),
    (
        "counter",
        "repro_retry_exhausted_total",
        ("site",),
        "Retry budgets exhausted (the error propagated), by site",
    ),
    # -- circuit breaker (serve/breaker.py) ----------------------------
    (
        "gauge",
        "repro_breaker_state",
        (),
        "Circuit breaker state (0 closed, 1 open, 2 half-open)",
    ),
    (
        "counter",
        "repro_breaker_transitions_total",
        ("from_state", "to_state"),
        "Circuit breaker state transitions",
    ),
    # -- degradation + drain (serve/degrade.py, serve/batcher.py) ------
    (
        "counter",
        "repro_server_degraded_total",
        ("source",),
        "Requests answered by a degraded fallback path, by source",
    ),
    (
        "counter",
        "repro_server_cancelled_total",
        (),
        "Requests cancelled after their submit timeout expired",
    ),
    (
        "counter",
        "repro_server_drain_incomplete_total",
        ("component",),
        "Requests resolved with BatcherClosedError at close, by component",
    ),
    # -- cache integrity (runtime/cache.py) ----------------------------
    (
        "counter",
        "repro_cache_quarantined_total",
        (),
        "Corrupt cache entries moved into quarantine",
    ),
    # -- sessions (sessions/session.py, sessions/store.py) -------------
    (
        "gauge",
        "repro_session_active",
        (),
        "Live sessions in the store",
    ),
    (
        "counter",
        "repro_session_created_total",
        (),
        "Sessions created (including checkpoint restores)",
    ),
    (
        "counter",
        "repro_session_deltas_total",
        ("kind", "outcome"),
        "Session deltas by kind and outcome",
    ),
    (
        "histogram",
        "repro_session_resolve_seconds",
        ("mode",),
        "Session re-solve wall time by resolve mode",
    ),
    (
        "counter",
        "repro_session_evictions_total",
        ("reason",),
        "Session evictions by reason",
    ),
    (
        "counter",
        "repro_session_rollbacks_total",
        (),
        "Session delta rollbacks (state restored after a failure)",
    ),
    (
        "counter",
        "repro_session_checkpoints_total",
        (),
        "Session checkpoints written",
    ),
    (
        "counter",
        "repro_session_cache_hits_total",
        ("source",),
        "Session re-solves answered from a cache (memo/global)",
    ),
)


def describe_standard_metrics(
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Pre-register every standard family (idempotent) so exporters
    list the full catalog; returns the registry for chaining."""
    registry = registry if registry is not None else get_registry()
    for kind, name, _labels, help_text in STANDARD_METRICS:
        registry.describe(kind, name, help_text)
    return registry
