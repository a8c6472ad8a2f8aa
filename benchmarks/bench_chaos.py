"""Chaos benchmark: the serving contract under seeded fault storms.

Drives the :func:`repro.faults.chaos.run_chaos` harness through three
escalating scenarios -- a clean baseline, a transient-fault storm
(solver errors + torn cache writes), and a full storm that adds
batcher stalls -- and records how traffic degraded:
how many requests were answered cleanly, how many honestly flagged
degraded, how many were shed with structured errors, and (the
acceptance bar) that **zero** responses violated the robustness
contract in any scenario.  Every spec of every storm must fire.

No storm crashes a pool worker: the harness posts one request at a
time, and the pool runs a lone task in-process, so a ``pool.task``
spec never fires here.  ``tests/runtime/test_pool_recovery.py`` crashes
a real worker.

The document lands in ``BENCH_chaos.json`` at the repo root; CI runs
this module as the ``chaos-smoke`` job with the same fixed seed.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from benchmarks.conftest import emit, usable_cpus
from repro.faults.chaos import run_chaos
from repro.faults.plan import FaultPlan

SEED = 2011  # fixed across CI runs -- the storm is reproducible
REQUESTS = 30

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_chaos.json"

SCENARIOS = [
    {
        "name": "clean",
        "specs": [],
    },
    {
        "name": "transient_storm",
        "specs": [
            "solve:error:p=0.3",
            "cache.write:torn-write:p=0.4",
            "cache.read:error:p=0.2",
        ],
    },
    {
        "name": "full_storm",
        "specs": [
            "solve:error:p=0.25",
            "cache.write:torn-write:p=0.25",
            "batcher.batch:sleep:delay=0.05,p=0.3",
        ],
    },
]


def run_scenario(scenario: dict) -> dict:
    plan = FaultPlan.from_cli_specs(scenario["specs"], seed=SEED)
    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        report = run_chaos(
            plan,
            requests=REQUESTS,
            seed=SEED,
            cache_dir=cache_dir,
        )
        wall = time.perf_counter() - start
    return {
        "name": scenario["name"],
        "specs": scenario["specs"],
        "requests": report["requests"],
        "outcomes": report["outcomes"],
        "faults_fired": report["faults_fired"],
        "violations": report["violations"],
        "passed": report["passed"],
        "wall_seconds": wall,
    }


def measure() -> dict:
    return {
        "bench": "chaos",
        "config": {
            "seed": SEED,
            "requests_per_scenario": REQUESTS,
            "cpu_count": usable_cpus(),
        },
        "scenarios": [run_scenario(scenario) for scenario in SCENARIOS],
    }


class TestChaosBench:
    def test_contract_holds_under_every_storm(self):
        document = measure()
        emit(json.dumps(document, indent=2))
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")

        by_name = {s["name"]: s for s in document["scenarios"]}

        # The acceptance bar: no scenario produced a wrong, torn, or
        # dishonestly-unflagged answer.
        for scenario in document["scenarios"]:
            assert scenario["passed"], (
                scenario["name"],
                scenario["violations"],
            )

        # The baseline is all clean answers; every storm spec fired.
        clean = by_name["clean"]
        assert clean["outcomes"]["ok"] == clean["requests"]
        for name in ("transient_storm", "full_storm"):
            storm = by_name[name]
            assert sorted(storm["faults_fired"]) == [
                str(index) for index in range(len(storm["specs"]))
            ], (name, storm["faults_fired"])
