"""Fleet-scale simulation benchmark: spatial index + SoA engine.

Builds city-scale scenarios (:mod:`repro.sim.cityscale`) at
n in {10^3, 10^4, 10^5} sensors and measures the slot rate of the
fleet stack against the unindexed reference path:

- **indexed**: coverage sets through the uniform-grid spatial index
  (``REPRO_SPATIAL=1``) and the vectorized struct-of-arrays engine
  step;
- **unindexed**: brute-force all-pairs coverage (``REPRO_SPATIAL=0``)
  and the scalar per-node-object engine step (``vectorized=False``).

Every speedup is measured between provably interchangeable paths:
**bit-identical simulation payloads are asserted before any timing is
recorded** -- indexed vs. brute wherever the brute path is tractable
(up to n = 10^4, which covers the n <= 10^3 floor).

Pinned shape (full mode): >= 10x end-to-end slot-rate speedup at
n = 10^4 over the unindexed path, and the n = 10^5 run completes at a
tractable simulated slot rate.  Results land in ``BENCH_fleet.json``
at the repo root.

Run standalone with ``python benchmarks/bench_fleet.py [--quick]``;
``--quick`` shrinks the sizes for CI smoke (equality is still asserted
exactly; the speedup floor relaxes to a >= 1x sanity check).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from benchmarks.conftest import emit, usable_cpus
from repro.policies.schedule_policy import SchedulePolicy
from repro.sim.cityscale import city_scenario
from repro.sim.engine import SimulationEngine, SimulationResult
from repro.sim.network import SensorNetwork

#: Fleet sizes of the full sweep (the ISSUE's pinned points).
FULL_SIZES = (1_000, 10_000, 100_000)
QUICK_SIZES = (200, 2_000)

#: Simulated slots per run: two base charging periods (T = 4 slots).
SLOTS = 8

#: Largest size at which the brute-force reference still runs; the
#: bit-equality gate rides along wherever the reference is computed.
BRUTE_MAX = 10_000

#: The pinned floor: end-to-end slot rate at n = SPEEDUP_AT must beat
#: the unindexed path by this factor in the full run.
SPEEDUP_FLOOR = 10.0
SPEEDUP_AT = 10_000

#: "Completes at a tractable slot rate": the largest size must sustain
#: at least this many simulated slots per second (sim only).
LARGEST_MIN_SLOT_RATE = 1.0

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"


def payload_bytes(result: SimulationResult) -> str:
    """Canonical per-slot payload: equal strings iff the runs are
    bit-identical (slots, active sets, utilities, refusals)."""
    return json.dumps(
        {
            "slots": [
                [record.slot, sorted(record.active_set), record.utility]
                for record in result.accumulator.records
            ],
            "refused": result.refused_activations,
            "total": result.total_utility,
        },
        sort_keys=True,
    )


def _with_spatial(flag: str, fn):
    """Run ``fn()`` with ``REPRO_SPATIAL`` pinned to ``flag``."""
    previous = os.environ.get("REPRO_SPATIAL")
    os.environ["REPRO_SPATIAL"] = flag
    try:
        return fn()
    finally:
        if previous is None:
            os.environ.pop("REPRO_SPATIAL", None)
        else:
            os.environ["REPRO_SPATIAL"] = previous


def run_single(n: int, *, indexed: bool):
    """Build the scenario and simulate it in one process.

    Returns ``(payload, scenario, setup_seconds, sim_seconds)``.  The
    setup time includes scenario generation (dominated by coverage-set
    construction, which is what the spatial index accelerates); the sim
    time is the engine run (vectorized on the indexed path, scalar on
    the reference path).
    """
    start = time.perf_counter()
    scenario = _with_spatial(
        "1" if indexed else "0", lambda: city_scenario(n, seed=n)
    )
    setup_seconds = time.perf_counter() - start

    network = SensorNetwork(
        num_sensors=scenario.num_sensors,
        period=scenario.period,
        utility=scenario.utility,
        node_periods=scenario.node_periods,
    )
    engine = SimulationEngine(
        network,
        SchedulePolicy(scenario.round_robin_schedule()),
        vectorized=None if indexed else False,
    )
    start = time.perf_counter()
    result = engine.run(SLOTS)
    sim_seconds = time.perf_counter() - start
    return payload_bytes(result), scenario, setup_seconds, sim_seconds


def measure_size(n: int) -> dict:
    indexed_payload, scenario, idx_setup, idx_sim = run_single(
        n, indexed=True
    )
    indexed_rate = SLOTS / (idx_setup + idx_sim)
    row = {
        "sensors": n,
        "targets": scenario.num_targets,
        "slots": SLOTS,
        "period_overrides": len(scenario.node_periods),
        "indexed": {
            "setup_seconds": idx_setup,
            "sim_seconds": idx_sim,
            "slot_rate": indexed_rate,
            "sim_slot_rate": SLOTS / idx_sim,
        },
        "equality": [],
    }

    if n <= BRUTE_MAX:
        brute_payload, _, brute_setup, brute_sim = run_single(
            n, indexed=False
        )
        assert brute_payload == indexed_payload, (
            f"n={n}: indexed and brute-force simulation payloads diverge"
        )
        row["equality"].append("indexed-vs-brute: bit-identical")
        brute_rate = SLOTS / (brute_setup + brute_sim)
        row["unindexed"] = {
            "setup_seconds": brute_setup,
            "sim_seconds": brute_sim,
            "slot_rate": brute_rate,
            "sim_slot_rate": SLOTS / brute_sim,
        }
        row["speedup"] = indexed_rate / brute_rate
    else:
        row["unindexed"] = None
        row["speedup"] = None

    return row


def measure(quick: bool = False) -> dict:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    return {
        "bench": "fleet",
        "quick": quick,
        "config": {
            "sizes": list(sizes),
            "slots": SLOTS,
            "brute_reference_max": BRUTE_MAX,
            "cpu_count": usable_cpus(),
        },
        "sizes": [measure_size(n) for n in sizes],
    }


def check_floors(document: dict) -> None:
    """The pinned shape for the full (non-quick) run."""
    by_n = {row["sensors"]: row for row in document["sizes"]}
    pinned = by_n[SPEEDUP_AT]
    assert pinned["speedup"] is not None and pinned["speedup"] >= SPEEDUP_FLOOR, (
        f"n={SPEEDUP_AT}: indexed path only {pinned['speedup']}x over "
        f"unindexed, floor {SPEEDUP_FLOOR}x"
    )
    largest = document["sizes"][-1]
    rate = largest["indexed"]["sim_slot_rate"]
    assert rate >= LARGEST_MIN_SLOT_RATE, (
        f"n={largest['sensors']}: {rate:.2f} slots/s is below the "
        f"tractability floor {LARGEST_MIN_SLOT_RATE}"
    )


class TestFleetScale:
    def test_slot_rates_with_bit_equality(self):
        document = measure(quick=False)
        emit(json.dumps(document, indent=2))
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")
        check_floors(document)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI workload: exact equality still asserted, the "
        "speedup floor relaxes to >= 1x sanity",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print the document without writing BENCH_fleet.json",
    )
    args = parser.parse_args()
    document = measure(quick=args.quick)
    print(json.dumps(document, indent=2))
    if not args.no_write:
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")
    if args.quick:
        rows = [row for row in document["sizes"] if row["speedup"] is not None]
        assert rows and all(row["speedup"] >= 1.0 for row in rows), (
            "quick mode: indexed path failed the >= 1x sanity floor"
        )
    else:
        check_floors(document)


if __name__ == "__main__":
    main()
