"""Runtime subsystem benchmark: parallel farm + schedule cache.

Measures, on a 100-replicate solve batch (a sweep-shaped workload: a
few unique instances crossed with a seed axis, the shape of every
evaluation in the paper and in Buchsbaum et al. / Bar-Noy & Baumer's
randomized-sweep methodology):

1. **batch speedup** -- the pre-runtime baseline (a serial loop of
   ``solve`` calls, one per replicate) against the runtime path
   (``solve_many`` with ``jobs=4`` and a fresh schedule cache).  The
   runtime wins by (a) collapsing duplicate fingerprints so each unique
   instance is solved once and (b) farming the unique solves across
   workers; on a single-core CI box (a) carries the speedup and (b) is
   neutral, on multicore they compound.
2. **pool-only speedup** -- ``jobs=4`` vs ``jobs=1`` on all-unique
   instances with no cache: the honest measure of (b) alone.  Expect
   ~1x on one core; recorded (with the core count) rather than pinned.
3. **cache latency** -- a cold (miss) vs warm (hit) ``solve_cached`` on
   a 300-sensor instance: the repeat-solve latency a serving deployment
   sees.

The rows are emitted as ``BENCH_parallel.json`` at the repo root (and
printed) so downstream tooling can track the trajectory.  Pinned
shape: the runtime path is >= 2x the serial baseline on the replicate
batch, and a warm hit is >= 10x faster than the cold solve.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.conftest import emit, usable_cpus
from repro.core.problem import SchedulingProblem
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.runtime import ScheduleCache, solve_cached, solve_many
from repro.utility.detection import HomogeneousDetectionUtility

PERIOD = ChargingPeriod.paper_sunny()
P = 0.4
JOBS = 4

#: 4 unique instances x 25 seeds = the 100-replicate batch.
UNIQUE_SENSOR_COUNTS = (150, 200, 250, 300)
SEEDS_PER_INSTANCE = 25

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_parallel.json"


def make_problem(n: int) -> SchedulingProblem:
    return SchedulingProblem(
        num_sensors=n,
        period=PERIOD,
        utility=HomogeneousDetectionUtility(range(n), p=P),
    )


def replicate_tasks():
    """The 100-replicate batch: unique instances crossed with seeds."""
    return [
        (make_problem(n), "greedy", seed)
        for seed in range(SEEDS_PER_INSTANCE)
        for n in UNIQUE_SENSOR_COUNTS
    ]


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def measure() -> dict:
    tasks = replicate_tasks()

    # 1. Serial baseline: what every workload did before the runtime.
    serial_results, serial_seconds = timed(
        lambda: [solve(p, method=m, rng=s) for p, m, s in tasks]
    )

    # 2. Runtime path: dedup + cache + jobs=4 worker farm.
    def runtime_run():
        return solve_many(tasks, jobs=JOBS, cache=ScheduleCache())

    (runtime_results, telemetry), runtime_seconds = timed(runtime_run)

    # Identical outputs or the comparison is meaningless.
    assert [r.schedule for r in runtime_results] == [
        r.schedule for r in serial_results
    ]

    # 3. Pool-only speedup on all-unique instances (no cache, no dedup).
    unique = [(make_problem(n), "greedy", None) for n in range(80, 120, 5)]
    (_, _), pool_serial_seconds = timed(lambda: solve_many(unique, jobs=1))
    (_, _), pool_parallel_seconds = timed(lambda: solve_many(unique, jobs=JOBS))

    # 4. Cold vs warm repeat-solve latency through the cache.
    big = make_problem(300)
    cache = ScheduleCache()
    (_, cold_status), cold_seconds = timed(
        lambda: solve_cached(big, cache=cache)
    )
    (_, warm_status), warm_seconds = timed(
        lambda: solve_cached(big, cache=cache)
    )
    assert (cold_status, warm_status) == ("miss", "hit")

    return {
        "bench": "parallel",
        "config": {
            "jobs": JOBS,
            "cpu_count": usable_cpus(),
            "replicates": len(tasks),
            "unique_instances": len(UNIQUE_SENSOR_COUNTS),
            "sensor_counts": list(UNIQUE_SENSOR_COUNTS),
            "seeds_per_instance": SEEDS_PER_INSTANCE,
        },
        "batch": {
            "serial_seconds": serial_seconds,
            "runtime_seconds": runtime_seconds,
            "speedup": serial_seconds / runtime_seconds,
            "cache": {
                "hits": sum(1 for t in telemetry if t.cache == "hit"),
                "misses": sum(1 for t in telemetry if t.cache == "miss"),
            },
        },
        "pool_only": {
            "tasks": len(unique),
            "serial_seconds": pool_serial_seconds,
            "parallel_seconds": pool_parallel_seconds,
            "speedup": pool_serial_seconds / pool_parallel_seconds,
        },
        "cache_latency": {
            "sensors": 300,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_speedup": cold_seconds / warm_seconds,
        },
    }


class TestParallelRuntime:
    def test_batch_and_cache_speedups(self):
        document = measure()
        emit(json.dumps(document, indent=2))
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")

        batch = document["batch"]
        assert batch["cache"]["misses"] == len(UNIQUE_SENSOR_COUNTS)
        assert batch["cache"]["hits"] == (
            document["config"]["replicates"] - len(UNIQUE_SENSOR_COUNTS)
        )
        assert batch["speedup"] >= 2.0, (
            f"runtime path only {batch['speedup']:.2f}x over serial"
        )
        warm = document["cache_latency"]
        assert warm["warm_speedup"] >= 10.0, (
            f"warm hit only {warm['warm_speedup']:.1f}x faster than cold"
        )

    def test_bench_warm_cached_solve(self, benchmark):
        cache = ScheduleCache()
        problem = make_problem(200)
        solve_cached(problem, cache=cache)  # prime

        def warm_hit():
            result, status = solve_cached(problem, cache=cache)
            assert status == "hit"
            return result

        result = benchmark(warm_hit)
        assert result.total_utility > 0
