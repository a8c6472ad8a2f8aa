"""Service-layer benchmark: throughput and tail latency over HTTP.

Three workloads against an in-process :class:`SolveService` on an
ephemeral port, all driven by 8 concurrent ``urllib`` clients (the
acceptance bar for the serving layer):

1. **duplicate** -- every client posts the *same* instance.  The first
   wave coalesces onto one solver invocation and every later request
   rides the admission-time cache fast path; the marginal-evaluation
   counter proves the solver ran exactly once.
2. **distinct** -- every request is a different instance (distinct
   fingerprints), so each pays a real solve through the batch pipeline.
3. **overload** -- a deliberately tiny queue (``max_queue=2``) with a
   long batch window, hit by 12 concurrent distinct requests: the
   service must shed with 429s rather than queue without bound.

The document lands in ``BENCH_serve.json`` at the repo root with
throughput (requests/second) and p50/p95 latency per workload.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from benchmarks.conftest import emit, usable_cpus
from repro.obs.registry import get_registry
from repro.serve.app import ServiceConfig, SolveService

CLIENTS = 8
REQUESTS_PER_CLIENT = 25
SENSORS = 16

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"


def body_bytes(p: float, method: str = "greedy") -> bytes:
    document = {
        "problem": {
            "num_sensors": SENSORS,
            "rho": 3.0,
            "num_periods": 1,
            "utility": {"p": round(p, 6)},
        },
        "method": method,
    }
    return json.dumps(document).encode("utf-8")


def post(url: str, payload: bytes) -> int:
    request = urllib.request.Request(
        url + "/v1/solve",
        data=payload,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            reply.read()
            return reply.status
    except urllib.error.HTTPError as error:
        error.read()
        return error.code


def quantile(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def drive(url: str, payload_for) -> dict:
    """Hammer the service with CLIENTS threads; returns the stats."""
    latencies, statuses = [], []
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS + 1)

    def client(worker: int) -> None:
        barrier.wait()
        for index in range(REQUESTS_PER_CLIENT):
            payload = payload_for(worker, index)
            start = time.perf_counter()
            status = post(url, payload)
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)
                statuses.append(status)

    threads = [
        threading.Thread(target=client, args=(w,)) for w in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    total = CLIENTS * REQUESTS_PER_CLIENT
    return {
        "requests": total,
        "concurrency": CLIENTS,
        "ok": statuses.count(200),
        "shed_429": statuses.count(429),
        "wall_seconds": wall,
        "throughput_rps": total / wall,
        "latency_p50_seconds": quantile(latencies, 0.50),
        "latency_p95_seconds": quantile(latencies, 0.95),
    }


def measure() -> dict:
    registry = get_registry()
    registry.reset()
    with tempfile.TemporaryDirectory() as cache_dir:
        config = ServiceConfig(port=0, cache_dir=cache_dir, batch_window=0.005)
        with SolveService(config) as service:
            url = service.url
            duplicate = drive(url, lambda w, i: body_bytes(0.4))
            evals = registry.sample_value(
                "repro_greedy_marginal_evals_total", variant="lazy"
            )
            coalesced = registry.sample_value("repro_server_coalesced_total")
            fastpath = registry.sample_value(
                "repro_server_cache_fastpath_total"
            )
            duplicate["marginal_evals_total"] = evals
            duplicate["coalesced_total"] = coalesced
            duplicate["cache_fastpath_total"] = fastpath

            distinct = drive(
                url,
                lambda w, i: body_bytes(
                    0.2 + 0.5 * (w * REQUESTS_PER_CLIENT + i)
                    / (CLIENTS * REQUESTS_PER_CLIENT)
                ),
            )

    # Overload: a queue of 2 with a slow window cannot admit 12
    # concurrent distinct requests; the rest must be shed as 429s.
    registry.reset()
    tiny = ServiceConfig(
        port=0, use_cache=False, max_queue=2, batch_window=0.3
    )
    with SolveService(tiny) as service:
        url = service.url
        statuses = []
        lock = threading.Lock()
        barrier = threading.Barrier(12)

        def slam(index: int) -> None:
            barrier.wait()
            status = post(url, body_bytes(0.21 + 0.04 * index))
            with lock:
                statuses.append(status)

        threads = [
            threading.Thread(target=slam, args=(i,)) for i in range(12)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    overload = {
        "requests": len(statuses),
        "ok": statuses.count(200),
        "shed_429": statuses.count(429),
    }

    return {
        "bench": "serve",
        "config": {
            "sensors": SENSORS,
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "cpu_count": usable_cpus(),
        },
        "duplicate_instance": duplicate,
        "distinct_instances": distinct,
        "overload": overload,
    }


class TestServeBench:
    def test_throughput_coalescing_and_shedding(self):
        document = measure()
        emit(json.dumps(document, indent=2))
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")

        duplicate = document["duplicate_instance"]
        distinct = document["distinct_instances"]
        overload = document["overload"]

        # Every request under 8-way concurrency was answered.
        assert duplicate["ok"] == duplicate["requests"]
        assert distinct["ok"] == distinct["requests"]

        # 200 duplicate requests cost very few actual solves: the rest
        # were coalesced in flight or answered from the cache.  (A
        # single solve is the common case; scheduler jitter can split
        # the first wave across a couple of batches, each of which
        # would be a cache hit anyway.)
        free_rides = (
            duplicate["coalesced_total"] + duplicate["cache_fastpath_total"]
        )
        assert free_rides >= duplicate["requests"] - CLIENTS
        assert duplicate["throughput_rps"] > distinct["throughput_rps"]

        # Induced overload sheds rather than queueing without bound.
        assert overload["shed_429"] >= 1
        assert overload["ok"] >= 1
        assert overload["ok"] + overload["shed_429"] == overload["requests"]
