"""Observability overhead benchmark: instrumentation must be ~free.

The ``repro.obs`` design contract is that metrics/tracing/events cost
nothing measurable on the hot paths unless a consumer is attached:
engine metric handles are resolved once at construction, a slot then
pays a few lock-protected adds, and event/trace call sites pay one
``None`` check.  This module measures that claim on the acceptance
workload -- a 200-slot simulation -- three ways:

1. **enabled** -- the default: registry recording on, no sink/tracer
   (what every ordinary run pays);
2. **disabled** -- ``MetricsRegistry.disable()``, the ``REPRO_OBS=0``
   path (the pre-observability baseline);
3. **events** -- recording on *plus* a JSONL sink attached (the cost
   of actually narrating every slot to disk).

Each variant is timed as best-of-``REPEATS`` interleaved runs (min is
the noise-robust statistic for a deterministic workload).  The
document lands in ``BENCH_obs.json`` at the repo root; the pinned
shape is enabled-vs-disabled overhead **< 5%**.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.conftest import emit, usable_cpus
from repro.core.greedy import greedy_schedule
from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.obs import events as obs_events
from repro.obs.events import EventSink
from repro.obs.registry import MetricsRegistry, get_registry
from repro.policies.schedule_policy import SchedulePolicy
from repro.sim.engine import SimulationEngine
from repro.sim.network import SensorNetwork
from repro.utility.detection import HomogeneousDetectionUtility

PERIOD = ChargingPeriod.paper_sunny()
N = 20
SLOTS = 200
REPEATS = 7
MAX_OVERHEAD = 0.05

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs.json"


def make_policy() -> SchedulePolicy:
    problem = SchedulingProblem(
        num_sensors=N,
        period=PERIOD,
        utility=HomogeneousDetectionUtility(range(N), p=0.4),
        num_periods=SLOTS // PERIOD.slots_per_period + 1,
    )
    return SchedulePolicy(greedy_schedule(problem))


def run_once(policy: SchedulePolicy) -> float:
    """One 200-slot simulation; returns its wall time."""
    network = SensorNetwork(
        N, PERIOD, HomogeneousDetectionUtility(range(N), p=0.4)
    )
    engine = SimulationEngine(network, policy)
    start = time.perf_counter()
    result = engine.run(SLOTS)
    elapsed = time.perf_counter() - start
    assert result.num_slots == SLOTS
    return elapsed


def measure() -> dict:
    policy = make_policy()
    run_once(policy)  # warm every code path before timing

    enabled_walls, disabled_walls, events_walls = [], [], []
    sink_path = BENCH_PATH.with_name("BENCH_obs_events.jsonl")
    for _ in range(REPEATS):
        # Interleave variants so drift (thermal, scheduler) hits all
        # three equally instead of biasing whichever ran last.
        MetricsRegistry.enable()
        enabled_walls.append(run_once(policy))

        MetricsRegistry.disable()
        try:
            disabled_walls.append(run_once(policy))
        finally:
            MetricsRegistry.enable()

        sink_path.unlink(missing_ok=True)
        sink = EventSink(sink_path)
        previous = obs_events.set_sink(sink)
        try:
            events_walls.append(run_once(policy))
        finally:
            obs_events.set_sink(previous)
            sink.close()
    emitted_events = sum(1 for _ in open(sink_path, encoding="utf-8"))
    sink_path.unlink(missing_ok=True)

    enabled, disabled = min(enabled_walls), min(disabled_walls)
    with_events = min(events_walls)
    return {
        "bench": "obs",
        "config": {
            "sensors": N,
            "slots": SLOTS,
            "repeats": REPEATS,
            "cpu_count": usable_cpus(),
            "statistic": "min",
        },
        "simulate_200_slots": {
            "disabled_seconds": disabled,
            "enabled_seconds": enabled,
            "overhead_fraction": enabled / disabled - 1.0,
            "events_sink_seconds": with_events,
            "events_sink_overhead_fraction": with_events / disabled - 1.0,
            "events_emitted_per_run": emitted_events,
        },
        "registry_after_runs": {
            "sim_slots_total": get_registry().sample_value(
                "repro_sim_slots_total"
            ),
        },
    }


class TestObsOverhead:
    def test_metrics_overhead_under_five_percent(self):
        document = measure()
        emit(json.dumps(document, indent=2))
        BENCH_PATH.write_text(json.dumps(document, indent=2) + "\n")

        sim = document["simulate_200_slots"]
        assert sim["overhead_fraction"] < MAX_OVERHEAD, (
            f"metrics overhead {sim['overhead_fraction']:.1%} exceeds "
            f"{MAX_OVERHEAD:.0%} on the {SLOTS}-slot simulate"
        )
        # The registry really was recording during the enabled runs.
        assert document["registry_after_runs"]["sim_slots_total"] > 0
        assert sim["events_emitted_per_run"] >= SLOTS
