"""Incremental-kernel benchmark: lazy greedy + simulate, old vs new.

Measures the wall-clock effect of the stateful marginal-gain kernels in
:mod:`repro.utility.incremental` against the from-scratch evaluation
path they replace (recovered exactly via ``REPRO_INCREMENTAL=0``):

1. **lazy greedy** -- Algorithm 1 (CELF variant) on weighted-coverage
   instances at n in {100, 300, 1000}.  The legacy path recomputes the
   covered-element set from the whole slot set on every stale heap
   entry (O(|S| d) per evaluation); the incremental evaluator keeps
   per-element cover counters and answers in O(d).
2. **simulate** -- a 200-slot run of the paper's evaluation
   configuration (multi-target homogeneous detection, p = 0.4) under
   the greedy periodic policy.  Periodic operation revisits the same
   per-slot active sets every period, so the accumulator's
   :class:`~repro.utility.incremental.SlotValueMemo` answers all but
   the first period's evaluations from cache.

Both comparisons assert **bit-for-bit equality** first -- identical
placement traces (every gain float) for greedy, identical per-slot
utility series for simulate -- so the speedup is measured between
provably interchangeable paths.  Results land in ``BENCH_kernels.json``
at the repo root.  Pinned shape (full mode): >= 5x on the n = 1000
greedy solve and >= 2x on the 200-slot simulate.

Run standalone with ``python benchmarks/bench_kernels.py [--quick]``;
``--quick`` shrinks the workload for CI smoke (equality is still
asserted exactly, the speedup floors are relaxed).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import emit, usable_cpus
from repro.core.greedy import GreedyTrace, greedy_schedule
from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.policies.greedy_periodic import GreedyPeriodicPolicy
from repro.sim.engine import SimulationEngine
from repro.sim.network import SensorNetwork
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.target_system import TargetSystem

PERIOD = ChargingPeriod.paper_sunny()

GREEDY_SENSOR_COUNTS = (100, 300, 1000)
GREEDY_QUICK_COUNTS = (100, 300)
ELEMENTS_PER_SENSOR = 8

SIM_SENSORS = 120
SIM_TARGETS = 300
SIM_SLOTS = 200
SIM_QUICK_SLOTS = 60

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"


def coverage_problem(n: int, seed: int = 7) -> SchedulingProblem:
    """Weighted max-coverage instance: n sensors over 2n elements."""
    rng = np.random.default_rng(seed)
    num_elements = 2 * n
    covers = {
        v: {
            int(e)
            for e in rng.choice(
                num_elements, size=ELEMENTS_PER_SENSOR, replace=False
            )
        }
        for v in range(n)
    }
    weights = {
        e: float(w)
        for e, w in enumerate(rng.uniform(0.5, 2.0, size=num_elements))
    }
    return SchedulingProblem(
        num_sensors=n,
        period=PERIOD,
        utility=WeightedCoverageUtility(covers, weights),
    )


def sim_network(seed: int = 11) -> SensorNetwork:
    """The paper's Sec. VI-B shape: multi-target detection, p = 0.4."""
    rng = np.random.default_rng(seed)
    covers = []
    for _ in range(SIM_TARGETS):
        size = int(rng.integers(20, 61))
        covers.append(
            frozenset(
                int(v)
                for v in rng.choice(SIM_SENSORS, size=size, replace=False)
            )
        )
    system = TargetSystem.homogeneous_detection(covers, p=0.4)
    return SensorNetwork(SIM_SENSORS, PERIOD, system)


def _with_toggle(flag: str, fn):
    """Run ``fn`` under REPRO_INCREMENTAL=flag, returning (value, secs)."""
    previous = os.environ.get("REPRO_INCREMENTAL")
    os.environ["REPRO_INCREMENTAL"] = flag
    try:
        start = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - start
    finally:
        if previous is None:
            os.environ.pop("REPRO_INCREMENTAL", None)
        else:
            os.environ["REPRO_INCREMENTAL"] = previous


def measure_greedy(counts) -> list:
    rows = []
    for n in counts:
        problem = coverage_problem(n)
        legacy_trace = GreedyTrace()
        incremental_trace = GreedyTrace()
        legacy, legacy_seconds = _with_toggle(
            "0", lambda: greedy_schedule(problem, trace=legacy_trace)
        )
        fast, incremental_seconds = _with_toggle(
            "1", lambda: greedy_schedule(problem, trace=incremental_trace)
        )
        # Bit-for-bit proof: every placement AND every gain float.
        assert legacy == fast, f"n={n}: schedules diverged"
        assert legacy_trace.steps == incremental_trace.steps, (
            f"n={n}: placement traces diverged"
        )
        rows.append(
            {
                "sensors": n,
                "legacy_seconds": legacy_seconds,
                "incremental_seconds": incremental_seconds,
                "speedup": legacy_seconds / incremental_seconds,
                "total_utility": legacy_trace.total_utility,
            }
        )
    return rows


def measure_simulate(num_slots: int) -> dict:
    def run():
        # Fresh network per run: batteries mutate during simulation.
        return SimulationEngine(sim_network(), GreedyPeriodicPolicy()).run(
            num_slots
        )

    legacy, legacy_seconds = _with_toggle("0", run)
    fast, incremental_seconds = _with_toggle("1", run)
    legacy_series = legacy.accumulator.per_slot_series()
    fast_series = fast.accumulator.per_slot_series()
    # Bit-for-bit proof: the whole per-slot utility series.
    assert np.array_equal(legacy_series, fast_series), (
        "simulate per-slot utilities diverged"
    )
    return {
        "sensors": SIM_SENSORS,
        "targets": SIM_TARGETS,
        "slots": num_slots,
        "legacy_seconds": legacy_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": legacy_seconds / incremental_seconds,
        "average_slot_utility": float(legacy_series.mean()),
    }


def measure(quick: bool = False) -> dict:
    counts = GREEDY_QUICK_COUNTS if quick else GREEDY_SENSOR_COUNTS
    slots = SIM_QUICK_SLOTS if quick else SIM_SLOTS
    return {
        "bench": "kernels",
        "quick": quick,
        "config": {
            "greedy_sensor_counts": list(counts),
            "elements_per_sensor": ELEMENTS_PER_SENSOR,
            "sim_slots": slots,
            "cpu_count": usable_cpus(),
        },
        "lazy_greedy": measure_greedy(counts),
        "simulate": measure_simulate(slots),
    }


def check_floors(document: dict) -> None:
    """The pinned shape for the full (non-quick) run."""
    by_n = {row["sensors"]: row for row in document["lazy_greedy"]}
    big = by_n[max(by_n)]
    assert big["speedup"] >= 5.0, (
        f"n={big['sensors']} lazy greedy only "
        f"{big['speedup']:.2f}x with incremental kernels"
    )
    sim = document["simulate"]
    assert sim["speedup"] >= 2.0, (
        f"{sim['slots']}-slot simulate only {sim['speedup']:.2f}x "
        "with the slot-value memo"
    )


class TestIncrementalKernels:
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
        "speedup floors relaxed to >= 1x",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print the document without writing BENCH_kernels.json",
    )
    args = parser.parse_args()
    document = measure(quick=args.quick)
    print(json.dumps(document, indent=2))
    if not args.no_write:
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")
    if args.quick:
        # Equality was asserted inside measure(); just sanity-check the
        # kernels are not a slowdown on the smoke workload.
        by_n = {row["sensors"]: row for row in document["lazy_greedy"]}
        big = by_n[max(by_n)]
        assert big["speedup"] >= 1.0, (
            f"quick greedy workload regressed: {big['speedup']:.2f}x"
        )
    else:
        check_floors(document)


if __name__ == "__main__":
    main()
