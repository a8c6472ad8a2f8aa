"""Session benchmark: warm delta re-solve vs cold re-plan.

The sessions subsystem exists so that one failed sensor does not cost
a whole Algorithm-1 re-run.  This bench pins that claim: a stream of
single-sensor-failure deltas is applied to a live
:class:`~repro.sessions.session.Session` (warm consistency -- scoped
repair around the vacated slot), and every post-delta live set is also
re-planned cold (:func:`~repro.core.repair.greedy_repair`, the exact
path an ``exact``-consistency session or a fresh ``POST /v1/solve``
would run).

Two families are measured at n in {200, 1000}:

- **homogeneous detection** -- the paper's Eq. 1 objective.  Warm and
  cold provably agree (balanced slot counts score identically), so the
  per-slot utility multisets are asserted equal float-for-float before
  timing is trusted.  Cold greedy is O(n^2)-ish here (every placement
  shifts every candidate's gain, so CELF re-evaluates constantly),
  while a warm repair touches a handful of slots: the headline >= 5x
  floor is pinned on this family.
- **weighted coverage** -- warm promises feasibility plus repaired
  quality, not bit-equality; the bench asserts the warm incumbent
  keeps >= 95% of the cold utility on every step.  The speedup floor
  is parity-plus (>= 1.5x), not 5x: on sparse covers CELF is itself
  quasi-incremental (most gains collapse to zero and are never
  re-evaluated, so a cold solve is ~40 ms at n = 1000), while
  best-move repair must still scan O(live) candidates per round
  because sub-saturation coverage keeps candidate gains dense.

Results land in ``BENCH_sessions.json`` at the repo root.  Pinned
shape (full mode): >= 5x warm-over-cold on the n = 1000
single-failure stream for the detection family, >= 1.5x with >= 0.95
retained utility for weighted coverage.

Run standalone with ``python benchmarks/bench_sessions.py [--quick]``;
``--quick`` shrinks the workload for the CI ``sessions-smoke`` job
(the floors relax to >= 1x, correctness is still asserted).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import emit, usable_cpus
from repro.core.problem import SchedulingProblem
from repro.core.repair import greedy_repair
from repro.energy.period import ChargingPeriod
from repro.sessions import Session, delta_from_dict, period_utility_of
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import HomogeneousDetectionUtility

PERIOD = ChargingPeriod.paper_sunny()  # rho = 3, T = 4

SENSOR_COUNTS = (200, 1000)
QUICK_COUNTS = (200,)
FAILURES = 20
QUICK_FAILURES = 8
ELEMENTS_PER_SENSOR = 8

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_sessions.json"


def homogeneous_problem(n: int) -> SchedulingProblem:
    # p is small on purpose: at n = 1000 a slot holds ~250 sensors, and
    # with the paper's p = 0.4 the per-slot utility saturates to 1.0 in
    # float (0.6^72 < 1 ulp) -- every placement gain rounds to exactly
    # 0.0 and tie-breaking, not balance, decides the counts.  p = 0.01
    # keeps (1-p)^250 ~ 0.08, so gains stay representable and the
    # warm-equals-cold multiset assertion is meaningful.
    return SchedulingProblem(
        num_sensors=n,
        period=PERIOD,
        utility=HomogeneousDetectionUtility(range(n), p=0.01),
    )


def coverage_problem(n: int, seed: int = 7) -> SchedulingProblem:
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


def slot_utility_multiset(assignment, utility, slots):
    return sorted(
        utility.value(
            frozenset(v for v, t in assignment.items() if t == slot)
        )
        for slot in range(slots)
    )


def measure_failure_stream(problem, failures: int, exact_family: bool) -> dict:
    """Apply ``failures`` single-sensor failures warm; cold-plan each
    successor live set; return totals, speedup and quality."""
    session = Session(problem, consistency="warm")
    slots = problem.slots_per_period
    rng = np.random.default_rng(13)
    warm_seconds = 0.0
    cold_seconds = 0.0
    worst_ratio = 1.0
    for _ in range(failures):
        victim = int(rng.choice(sorted(session.live_sensors())))
        delta = delta_from_dict({"kind": "sensor-failed", "sensor": victim})

        start = time.perf_counter()
        outcome = session.apply(delta)
        warm_seconds += time.perf_counter() - start

        live = sorted(session.live_sensors())
        start = time.perf_counter()
        cold = dict(
            greedy_repair(live, slots, problem.utility).assignment
        )
        cold_seconds += time.perf_counter() - start

        cold_utility = period_utility_of(cold, problem.utility, slots)
        if exact_family:
            assert slot_utility_multiset(
                session.assignment, problem.utility, slots
            ) == slot_utility_multiset(cold, problem.utility, slots), (
                "warm homogeneous repair diverged from the cold plan"
            )
        else:
            ratio = (
                outcome.period_utility / cold_utility
                if cold_utility
                else 1.0
            )
            worst_ratio = min(worst_ratio, ratio)
            assert ratio >= 0.95, (
                f"warm incumbent kept only {ratio:.3f} of cold utility"
            )
    return {
        "sensors": problem.num_sensors,
        "failures": failures,
        "warm_seconds": warm_seconds,
        "cold_seconds": cold_seconds,
        "speedup": cold_seconds / warm_seconds,
        "warm_ms_per_delta": 1000.0 * warm_seconds / failures,
        "cold_ms_per_solve": 1000.0 * cold_seconds / failures,
        "worst_utility_ratio": worst_ratio,
    }


def measure(quick: bool = False) -> dict:
    counts = QUICK_COUNTS if quick else SENSOR_COUNTS
    failures = QUICK_FAILURES if quick else FAILURES
    return {
        "bench": "sessions",
        "quick": quick,
        "config": {
            "sensor_counts": list(counts),
            "failures_per_stream": failures,
            "slots_per_period": PERIOD.slots_per_period,
            "elements_per_sensor": ELEMENTS_PER_SENSOR,
            "cpu_count": usable_cpus(),
        },
        "homogeneous": [
            measure_failure_stream(
                homogeneous_problem(n), failures, exact_family=True
            )
            for n in counts
        ],
        "weighted_coverage": [
            measure_failure_stream(
                coverage_problem(n), failures, exact_family=False
            )
            for n in counts
        ],
    }


#: Per-family speedup floors at the largest n (see module docstring
#: for why coverage pins parity-plus rather than the headline 5x).
SPEEDUP_FLOORS = {"homogeneous": 5.0, "weighted_coverage": 1.5}


def check_floors(document: dict) -> None:
    """The pinned shape for the full (non-quick) run."""
    for family, floor in SPEEDUP_FLOORS.items():
        by_n = {row["sensors"]: row for row in document[family]}
        big = by_n[max(by_n)]
        assert big["speedup"] >= floor, (
            f"{family} n={big['sensors']}: single-failure deltas only "
            f"{big['speedup']:.2f}x over cold re-solve (floor {floor}x)"
        )
        assert big["worst_utility_ratio"] >= 0.95


class TestSessionDeltas:
    def test_warm_deltas_beat_cold_resolve(self):
        document = measure(quick=False)
        emit(json.dumps(document, indent=2))
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")
        check_floors(document)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI workload: correctness still asserted, speedup "
        "floors relaxed to >= 1x",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print the document without writing BENCH_sessions.json",
    )
    args = parser.parse_args()
    document = measure(quick=args.quick)
    print(json.dumps(document, indent=2))
    if not args.no_write:
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")
    if args.quick:
        for family in ("homogeneous", "weighted_coverage"):
            worst = min(row["speedup"] for row in document[family])
            assert worst >= 1.0, (
                f"quick {family} workload regressed: {worst:.2f}x"
            )
    else:
        check_floors(document)


if __name__ == "__main__":
    main()
