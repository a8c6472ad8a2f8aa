"""Batched-solving benchmark: cross-instance kernels vs the serial loop.

Measures :func:`repro.batched.greedy.solve_batch` against a serial
``[solve(p, method="greedy") for p in problems]`` loop of *distinct*
instances (no dedup, no cache -- the workload the batch kernels exist
for), and the end-to-end effect through
:func:`repro.runtime.executor.solve_many` under ``REPRO_BATCHED=1`` vs
``0``.

Both comparisons assert **bit-for-bit equality** first -- identical
canonical result payloads per instance -- so every speedup is measured
between provably interchangeable paths.  Results land in
``BENCH_batched.json`` at the repo root.

Pinned shape (full mode): the batched kernels reach **>= 5x per-call
speedup at batch width 32** (homogeneous-detection, n = 120), and the
distinct-instance serve path through ``solve_many`` clears >= 3x.
Everything here is single-core by design -- the batch kernels trade
process-pool parallelism for vectorization, so the serve-throughput
gain is bounded by the kernel speedup on one core, not by the machine's
core count; the JSON records that ceiling explicitly.

Run standalone with ``python benchmarks/bench_batched.py [--quick]``;
``--quick`` shrinks the workload for CI smoke (equality is still
asserted exactly, the speedup floors are relaxed to sanity checks).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import emit, usable_cpus
from repro.batched.greedy import solve_batch
from repro.core.problem import SchedulingProblem
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.runtime.cache import result_to_payload
from repro.runtime.executor import solve_many
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import (
    DetectionUtility,
    HomogeneousDetectionUtility,
)
from repro.utility.logsum import LogSumUtility

PERIOD = ChargingPeriod.paper_sunny()

#: (family, batch width, sensors per instance) rows of the full sweep.
KERNEL_ROWS = (
    ("homogeneous-detection", 8, 120),
    ("homogeneous-detection", 32, 120),
    ("detection", 32, 120),
    ("logsum", 32, 120),
    ("coverage", 32, 120),
)
KERNEL_QUICK_ROWS = (
    ("homogeneous-detection", 8, 30),
    ("detection", 8, 30),
)

SERVE_BATCH = 32
SERVE_SENSORS = 120
SERVE_QUICK_BATCH = 8
SERVE_QUICK_SENSORS = 30

#: The pinned floors for the full run: per-call kernel speedup on the
#: flagship row, and the (kernel-bounded, single-core) serve speedup.
KERNEL_FLOOR = 5.0
SERVE_FLOOR = 3.0

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_batched.json"


def make_problem(family: str, n: int, seed: int) -> SchedulingProblem:
    """One distinct instance of the named batch-kernel family."""
    rng = np.random.default_rng(seed)
    if family == "homogeneous-detection":
        utility = HomogeneousDetectionUtility(
            range(n), p=float(rng.uniform(0.3, 0.5))
        )
    elif family == "detection":
        utility = DetectionUtility(
            {v: float(rng.uniform(0.2, 0.7)) for v in range(n)}
        )
    elif family == "logsum":
        utility = LogSumUtility(
            {v: float(rng.integers(1, 20)) for v in range(n)}
        )
    elif family == "coverage":
        num_elements = 2 * n
        covers = {
            v: {
                int(e)
                for e in rng.choice(num_elements, size=8, replace=False)
            }
            for v in range(n)
        }
        weights = {
            e: float(w)
            for e, w in enumerate(rng.uniform(0.5, 2.0, size=num_elements))
        }
        utility = WeightedCoverageUtility(covers, weights)
    else:
        raise ValueError(f"unknown benchmark family {family!r}")
    return SchedulingProblem(num_sensors=n, period=PERIOD, utility=utility)


def distinct_problems(family: str, width: int, n: int) -> list:
    return [
        make_problem(family, n, seed=1000 * width + i) for i in range(width)
    ]


def payload_bytes(result) -> str:
    payload = result_to_payload(result)
    payload.pop("solve_seconds", None)
    return json.dumps(payload, sort_keys=True)


def assert_identical(batched, serial, context: str) -> None:
    for i, (b, s) in enumerate(zip(batched, serial)):
        assert payload_bytes(b) == payload_bytes(s), (
            f"{context}: batched and serial results diverge on member {i}"
        )


def measure_kernel(rows) -> list:
    out = []
    for family, width, n in rows:
        problems = distinct_problems(family, width, n)
        start = time.perf_counter()
        serial = [solve(p, method="greedy") for p in problems]
        serial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        batched = solve_batch(problems)
        batched_seconds = time.perf_counter() - start
        assert_identical(
            batched, serial, f"kernel family={family} width={width}"
        )
        out.append(
            {
                "family": family,
                "batch_width": width,
                "sensors": n,
                "serial_seconds": serial_seconds,
                "batched_seconds": batched_seconds,
                "speedup": serial_seconds / batched_seconds,
            }
        )
    return out


def measure_serve(width: int, n: int) -> dict:
    """Distinct-instance throughput through the executor front door."""
    problems = distinct_problems("homogeneous-detection", width, n)
    tasks = [(p, "greedy", None) for p in problems]

    def run(flag: str):
        previous = os.environ.get("REPRO_BATCHED")
        os.environ["REPRO_BATCHED"] = flag
        try:
            start = time.perf_counter()
            results, telemetry = solve_many(tasks)
            return results, telemetry, time.perf_counter() - start
        finally:
            if previous is None:
                os.environ.pop("REPRO_BATCHED", None)
            else:
                os.environ["REPRO_BATCHED"] = previous

    serial_results, _, serial_seconds = run("0")
    batched_results, telemetry, batched_seconds = run("1")
    assert all(record.batched for record in telemetry), (
        "serve measurement did not ride the batch kernels"
    )
    assert_identical(batched_results, serial_results, "serve")
    return {
        "family": "homogeneous-detection",
        "batch_width": width,
        "sensors": n,
        "serial_seconds": serial_seconds,
        "batched_seconds": batched_seconds,
        "speedup": serial_seconds / batched_seconds,
        "serial_solves_per_second": width / serial_seconds,
        "batched_solves_per_second": width / batched_seconds,
        "note": (
            "single-core by design: the serve gain is bounded by the "
            "kernel speedup on one core, not by cpu_count"
        ),
    }


def measure(quick: bool = False) -> dict:
    kernel_rows = KERNEL_QUICK_ROWS if quick else KERNEL_ROWS
    width = SERVE_QUICK_BATCH if quick else SERVE_BATCH
    n = SERVE_QUICK_SENSORS if quick else SERVE_SENSORS
    return {
        "bench": "batched",
        "quick": quick,
        "config": {
            "kernel_rows": [list(row) for row in kernel_rows],
            "serve_batch_width": width,
            "serve_sensors": n,
            "cpu_count": usable_cpus(),
        },
        "kernel": measure_kernel(kernel_rows),
        "serve": measure_serve(width, n),
    }


def check_floors(document: dict) -> None:
    """The pinned shape for the full (non-quick) run."""
    best = max(
        (
            row
            for row in document["kernel"]
            if row["batch_width"] >= 32
        ),
        key=lambda row: row["speedup"],
    )
    assert best["speedup"] >= KERNEL_FLOOR, (
        f"best batch>=32 kernel row ({best['family']}) only "
        f"{best['speedup']:.2f}x, floor {KERNEL_FLOOR}x"
    )
    serve = document["serve"]
    assert serve["speedup"] >= SERVE_FLOOR, (
        f"distinct-instance serve path only {serve['speedup']:.2f}x, "
        f"floor {SERVE_FLOOR}x"
    )


class TestBatchedKernels:
    def test_speedups_with_bit_equality(self):
        document = measure(quick=False)
        emit(json.dumps(document, indent=2))
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")
        check_floors(document)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI workload: exact equality still asserted, "
        "speedup floors relaxed to >= 1x sanity",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print the document without writing BENCH_batched.json",
    )
    args = parser.parse_args()
    document = measure(quick=args.quick)
    print(json.dumps(document, indent=2))
    if not args.no_write:
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")
    if args.quick:
        # Equality was asserted inside measure(); just sanity-check the
        # kernels are not a heavy slowdown on the smoke workload.
        best = max(row["speedup"] for row in document["kernel"])
        assert best >= 1.0, (
            f"quick batched workload regressed: best row {best:.2f}x"
        )
    else:
        check_floors(document)


if __name__ == "__main__":
    main()
