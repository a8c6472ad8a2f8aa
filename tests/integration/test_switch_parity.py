"""End-to-end parity of the fast paths with their reference twins.

Each fast path keeps the code it replaced as a reference twin: the base
evaluator (reached through the ``from_scratch`` fixture), brute-force
coverage (the ``brute_coverage`` fixture) and the engine's scalar step
(``vectorized=False``).  The unit suites compare each layer with its
twin in isolation.  These tests run a whole simulation both ways and
require the outputs to be equal float for float:

- the paper's evaluation shape (multi-target homogeneous detection,
  p = 0.4) under the greedy periodic policy, with the incremental
  evaluators and with the from-scratch base evaluator;
- a city-scale fleet with coverage sets from the spatial index and the
  vectorized engine step, against brute-force coverage and the scalar
  per-node step.

The slot-value memo of the accumulator has no switch: every record of
the simulate is checked against a fresh evaluation of its active set.
"""

import numpy as np

from repro.energy.period import ChargingPeriod
from repro.obs.registry import get_registry
from repro.policies.greedy_periodic import GreedyPeriodicPolicy
from repro.policies.schedule_policy import SchedulePolicy
from repro.sim.cityscale import city_scenario
from repro.sim.engine import SimulationEngine
from repro.sim.network import SensorNetwork
from repro.utility.target_system import TargetSystem

PAPER_SENSORS = 120
PAPER_TARGETS = 300
PAPER_SLOTS = 60

FLEET_SENSORS = 2_000
#: Two base charging periods (T = 4 slots).
FLEET_SLOTS = 8


def paper_network():
    rng = np.random.default_rng(11)
    covers = []
    for _ in range(PAPER_TARGETS):
        size = int(rng.integers(20, 61))
        covers.append(
            frozenset(
                int(v)
                for v in rng.choice(PAPER_SENSORS, size=size, replace=False)
            )
        )
    system = TargetSystem.homogeneous_detection(covers, p=0.4)
    return SensorNetwork(PAPER_SENSORS, ChargingPeriod.paper_sunny(), system)


def paper_simulate():
    return SimulationEngine(paper_network(), GreedyPeriodicPolicy()).run(
        PAPER_SLOTS
    )


def test_greedy_simulation_identical_without_incremental_kernels(from_scratch):
    incremental = paper_simulate().accumulator.per_slot_series()
    from_scratch()
    reference = paper_simulate().accumulator.per_slot_series()
    assert len(incremental) == PAPER_SLOTS
    assert np.array_equal(incremental, reference)


def test_memoized_slot_utilities_equal_fresh_evaluations():
    """Periodic plans revisit the same active sets, so most records come
    out of the accumulator's slot-value memo; each must equal its set's
    utility evaluated afresh."""
    result = paper_simulate()
    utility = result.accumulator.utility
    records = result.accumulator.records
    assert len(records) == PAPER_SLOTS
    assert len({record.active_set for record in records}) < PAPER_SLOTS
    for record in records:
        assert record.utility == float(
            utility.per_target_values(record.active_set).sum()
        ), record.slot


def fleet_run(indexed):
    """Each sensor's covered targets, the per-slot records, refusals and
    total of one city run, and the number of spatial indexes built."""
    registry = get_registry()
    registry.reset()
    scenario = city_scenario(FLEET_SENSORS, seed=FLEET_SENSORS)
    index_builds = registry.sample_value("repro_spatial_index_builds_total")
    network = SensorNetwork(
        num_sensors=scenario.num_sensors,
        period=scenario.period,
        utility=scenario.utility,
        node_periods=scenario.node_periods,
    )
    engine = SimulationEngine(
        network,
        SchedulePolicy(scenario.round_robin_schedule()),
        vectorized=indexed,
    )
    result = engine.run(FLEET_SLOTS)
    records = (
        [sorted(scenario.utility.covers_of(v)) for v in range(FLEET_SENSORS)],
        [
            (
                record.slot,
                list(record.active_set),
                record.utility,
                record.refused_activations,
            )
            for record in result.accumulator.records
        ],
        result.refused_activations,
        result.total_utility,
    )
    return records, index_builds


def test_fleet_identical_on_brute_coverage_and_scalar_engine(brute_coverage):
    fast, fast_builds = fleet_run(indexed=True)
    brute_coverage()
    reference, reference_builds = fleet_run(indexed=False)
    assert fast_builds > 0 and reference_builds == 0
    assert len(fast[1]) == FLEET_SLOTS
    assert fast == reference
