"""Cluster scaling benchmark: rps and tail latency vs worker count.

Boots a real :class:`~repro.cluster.service.ClusterService` (router +
N worker subprocesses) for each point in ``WORKER_COUNTS`` and drives
the open-loop :mod:`~repro.cluster.loadgen` harness through the router
in both canonical regimes:

- **duplicate** -- one instance repeated: fingerprint routing pins it
  to a single shard, so the cluster's win is the shared disk tier and
  coalescing, not parallelism;
- **distinct** -- every request a new instance: keys spread over the
  ring and each worker pays real solves.

Honesty notes, on purpose: this container is typically single-core, so
distinct-traffic rps should NOT be expected to scale linearly with
worker count -- the point of the curve is the measurement, not a
victory lap.  All runs share one cache directory with per-run writer
labels, so the aggregated sidecar stats at the end prove the shared
tier crossed process boundaries (``cross_hits > 0``: a later run's
worker served an entry an earlier run's worker wrote).

The document lands in ``BENCH_serve_scale.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from benchmarks.conftest import emit, usable_cpus
from repro.cluster.loadgen import LoadgenConfig, run_loadgen
from repro.cluster.service import ClusterConfig, ClusterService
from repro.runtime.cache import aggregate_sidecar_stats

WORKER_COUNTS = (1, 2, 4)
MODES = ("duplicate", "distinct")
RPS = 20.0
DURATION = 2.0
CLIENTS = 6

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve_scale.json"

_EMPTY = {
    "hits": 0,
    "misses": 0,
    "stores": 0,
    "disk_hits": 0,
    "cross_hits": 0,
}


def cache_totals(cache_dir: str) -> dict:
    totals = aggregate_sidecar_stats(cache_dir)
    if totals is None:
        return dict(_EMPTY)
    return {field: totals[field] for field in _EMPTY}


def one_run(
    run_index: int, workers: int, mode: str, cache_dir: str, runtime_dir: str
) -> dict:
    """One (worker count, traffic mode) point through a fresh cluster."""
    before = cache_totals(cache_dir)
    cluster = ClusterService(
        ClusterConfig(
            workers=workers,
            port=0,
            runtime_dir=runtime_dir,
            cache_dir=cache_dir,
            request_timeout=30.0,
            # Unique per-run writer labels keep every run's sidecar (and
            # its cross-hit accounting) distinct in the shared store.
            service={
                "batch_window": 0.005,
                "cache_label": f"run{run_index}-{{shard}}",
            },
        )
    )
    with cluster:
        report = run_loadgen(
            LoadgenConfig(
                url=cluster.url,
                rps=RPS,
                duration=DURATION,
                clients=CLIENTS,
                mode=mode,
                timeout=20.0,
            )
        )
    after = cache_totals(cache_dir)
    return {
        "workers": workers,
        "mode": mode,
        "requests": report["requests"],
        "rps_target": report["rps_target"],
        "rps_achieved": report["rps_achieved"],
        "statuses": report["statuses"],
        "error_rate": report["error_rate"],
        "latency": report["latency"],
        "send_lateness_p95": report["send_lateness_p95"],
        "cache_delta": {
            field: after[field] - before[field] for field in _EMPTY
        },
    }


def measure() -> dict:
    runs = []
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as scratch:
        cache_dir = os.path.join(scratch, "cache")
        for index, workers in enumerate(WORKER_COUNTS):
            for offset, mode in enumerate(MODES):
                run_index = index * len(MODES) + offset
                runs.append(
                    one_run(
                        run_index,
                        workers,
                        mode,
                        cache_dir,
                        os.path.join(scratch, f"run-{run_index}"),
                    )
                )
        totals = cache_totals(cache_dir)
        writers = aggregate_sidecar_stats(cache_dir)["writers"]
    return {
        "bench": "serve_scale",
        "config": {
            "worker_counts": list(WORKER_COUNTS),
            "modes": list(MODES),
            "rps_target": RPS,
            "duration_seconds": DURATION,
            "clients": CLIENTS,
            "cpu_count": usable_cpus(),
        },
        "runs": runs,
        "shared_cache": {**totals, "writers": writers},
    }


class TestServeScaleBench:
    def test_rps_curves_and_shared_tier(self):
        document = measure()
        emit(json.dumps(document, indent=2))
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")

        for run in document["runs"]:
            label = f"{run['workers']}w/{run['mode']}"
            assert run["rps_achieved"] > 0, label
            latency = run["latency"]
            assert 0 < latency["p50"] <= latency["p95"] <= latency["max"], label
            ok = run["statuses"].get("200", 0)
            assert ok / run["requests"] >= 0.9, (label, run["statuses"])

        # Duplicate traffic must ride a cache/coalescing fast path:
        # cheaper at the median than cold distinct solves on the same
        # fleet size.
        by_key = {(r["workers"], r["mode"]): r for r in document["runs"]}
        for workers in document["config"]["worker_counts"]:
            dup = by_key[(workers, "duplicate")]
            dis = by_key[(workers, "distinct")]
            assert dup["latency"]["p50"] <= dis["latency"]["p50"] * 1.5

        # The shared tier crossed process boundaries: some worker served
        # an entry a *different* worker process wrote.
        shared = document["shared_cache"]
        assert shared["writers"] >= sum(WORKER_COUNTS)
        assert shared["cross_hits"] > 0
        assert shared["stores"] > 0
