"""fleet-day: plan a 20k-sensor city and simulate it day by day.

Why it exists: this workload alone exercises fleet scale -- the
spatial index (scenario build), greedy at large n (the plan), the
vectorized engine step, utility accumulation and the JSONL event sink,
as ``repro simulate --events-out`` runs them.  None of these sit
behind HTTP.  ``setup_s`` is the scenario build plus the plan: both
are paid before the first slot can be simulated.
"""

from __future__ import annotations

import os
import random

from perfbench.affinity import CpuCycle
from perfbench.client import monotonic
from perfbench.layers import diff, fallbacks, registry_samples
from perfbench.outcome import Context, Outcome
from perfbench.spans import Recorder, install
from perfbench.stats import quantile

SENSORS = 20_000
#: An 8 x 8 weather grid instead of the default 4 x 4: with 16 district
#: draws the share of re-periodized nodes (and with it the cost of a
#: slot) swung by a third between seeds; 64 draws keep it near the mix.
DISTRICTS = 8
#: One simulated day of 15-minute slots (the city's base T_d).
SLOTS_PER_DAY = 96
#: The timed unit: one simulated hour.  Every fourth slot costs about
#: three times the others, so a single slot's time says more about
#: where it falls in the hour than about the engine.
SLOTS_PER_HOUR = 4
#: Slots per day whose recorded utility is recomputed from the
#: recorded active set.
SAMPLED_SLOTS = 2


def _build(seed: int):
    """Scenario, plan and engine; returns (scenario, engine, plan seconds)."""
    from repro.core import solver
    from repro.policies.schedule_policy import SchedulePolicy
    from repro.sim.cityscale import city_scenario
    from repro.sim.engine import SimulationEngine
    from repro.sim.network import SensorNetwork

    scenario = city_scenario(SENSORS, districts=DISTRICTS, seed=seed)
    start = monotonic()
    planned = solver.solve(scenario.problem(), method="greedy")
    plan_s = monotonic() - start
    network = SensorNetwork(
        num_sensors=scenario.num_sensors,
        period=scenario.period,
        utility=scenario.utility,
        node_periods=scenario.node_periods,
    )
    engine = SimulationEngine(network, SchedulePolicy(planned.periodic))
    return scenario, engine, plan_s


def _check_day(out: Outcome, path: str, first_slot: int, utility, rng: random.Random) -> None:
    """The day's events parse, hold one ``engine.slot`` per slot, and
    sampled utilities recompute exactly from the recorded active sets."""
    from repro.obs.events import read_events

    slots = [e for e in read_events(path) if e["kind"] == "engine.slot"]
    if [e["slot"] for e in slots] != list(range(first_slot, first_slot + SLOTS_PER_DAY)):
        out.fail(f"day from slot {first_slot}: engine.slot events do not match", SLOTS_PER_DAY)
        return
    for event in rng.sample(slots, SAMPLED_SLOTS):
        value = utility.value(frozenset(sorted(event["active"])))
        if value != event["utility"]:
            out.fail(f"slot {event['slot']}: utility {event['utility']!r} != {value!r}")


def run(ctx: Context, seed: int, seconds: float, traced: bool, setups: int) -> Outcome:
    from repro.obs import events as obs_events

    out = Outcome()
    rng = random.Random(f"fleet-day/{seed}")
    recorder = Recorder()
    uninstall = install(recorder) if traced else None
    before = registry_samples()
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    path = str(ctx.workdir / "day.jsonl")
    timed = 0.0
    slots = 0
    event_bytes = 0
    cpus = CpuCycle()
    try:
        plans = []
        for _ in range(setups):
            scenario = engine = None  # free the previous fleet first
            cpus.next()
            start = monotonic()
            scenario, engine, plan_s = _build(seed)
            out.setup_s.append(monotonic() - start)
            plans.append(plan_s)

        while timed < seconds:
            first_slot = engine.network.clock.slot
            sink = obs_events.EventSink(path)
            previous = obs_events.set_sink(sink)
            try:
                engine.run(0)  # a fresh accumulation per day bounds memory
                day = 0.0
                for _ in range(SLOTS_PER_DAY // SLOTS_PER_HOUR):
                    cpus.next()
                    start = monotonic()
                    engine.advance(SLOTS_PER_HOUR)
                    elapsed = monotonic() - start
                    day += elapsed
                    out.latencies_ms.append(1000.0 * elapsed)
                timed += day
            finally:
                obs_events.set_sink(previous)
                sink.close()
            slots += SLOTS_PER_DAY
            event_bytes += os.path.getsize(path)
            _check_day(out, path, first_slot, scenario.utility, rng)
            os.remove(path)
    finally:
        cpus.restore()
        if uninstall is not None:
            uninstall()
    after = registry_samples()

    out.attempted = slots
    out.check_fallbacks(fallbacks(diff(after, before)), ())
    out.throughput = slots / timed
    out.report.append(("fleet.plan_s", quantile(plans, 0.5), "s", len(plans)))
    out.report.append(("fleet.sim_slots_per_s", out.throughput, "1/s", slots))
    out.notes.append(
        f"fleet: {scenario.num_sensors} sensors, {scenario.num_targets} targets, "
        f"{len(scenario.node_periods)} period overrides, "
        f"{event_bytes / slots:.0f} event bytes per slot"
    )
    if traced:
        out.spans = recorder.spans
        out.counters = diff(after, before)
        out.event_bytes_per_slot = event_bytes / slots
    return out
