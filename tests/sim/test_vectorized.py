"""Differential suite: vectorized struct-of-arrays step vs. scalar step.

The engine's fast path performs the per-node energy accounting as
whole-fleet numpy operations; the contract is bit-identical results to
the scalar per-node-object loop -- same active-set hash layout, same
float64 battery trajectories, same refusal/transition counters -- plus
the ``sensing_filter`` regression pinned here: the filter must be
applied *after* the activity mask at all three call sites (begin, step,
restore), so filtered ("stuck") sensors still drain while their
readings are discarded.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.coverage.deployment import uniform_deployment
from repro.coverage.geometry import Rectangle
from repro.coverage.matrix import coverage_sets
from repro.coverage.sensing import DiskSensingModel
from repro.core import solver
from repro.core.schedule import PeriodicSchedule, ScheduleMode
from repro.energy.period import ChargingPeriod
from repro.energy.states import NodeState
from repro.obs import events as obs_events
from repro.policies.base import ActivationPolicy
from repro.policies.schedule_policy import SchedulePolicy
from repro.sim.cityscale import city_scenario
from repro.sim.engine import SLOT_CACHE_ENTRIES, SimulationEngine
from repro.sim.network import SensorNetwork
from repro.utility.target_system import TargetSystem

PERIOD = ChargingPeriod.paper_sunny()


def make_utility(n, seed=0):
    deployment = uniform_deployment(
        n, num_targets=15, region=Rectangle.square(6.0), rng=seed
    )
    return TargetSystem.homogeneous_detection(
        coverage_sets(deployment, DiskSensingModel(radius=1.2)), p=0.4
    )


def schedule_for(n, slots_per_period):
    return PeriodicSchedule(
        slots_per_period=slots_per_period,
        assignment={i: i % slots_per_period for i in range(n)},
        mode=ScheduleMode.ACTIVE_SLOT,
    )


def build_engine(
    n,
    utility,
    schedule,
    vectorized,
    node_periods=None,
    ready_threshold=1.0,
    sensing_filter=None,
):
    network = SensorNetwork(
        n,
        PERIOD,
        utility,
        ready_threshold=ready_threshold,
        node_periods=node_periods,
    )
    return SimulationEngine(
        network,
        SchedulePolicy(schedule),
        vectorized=vectorized,
        sensing_filter=sensing_filter,
    )


def assert_bit_identical(fast, slow):
    a, b = fast.accumulator.records, slow.accumulator.records
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.slot == rb.slot
        assert ra.active_set == rb.active_set
        assert list(ra.active_set) == list(rb.active_set)
        assert ra.utility == rb.utility
        assert ra.refused_activations == rb.refused_activations
    assert fast.refused_activations == slow.refused_activations
    assert fast.total_utility == slow.total_utility


def assert_same_node_state(net_a, net_b):
    assert np.array_equal(net_a.arrays.level, net_b.arrays.level)
    assert np.array_equal(net_a.arrays.state, net_b.arrays.state)
    assert np.array_equal(net_a.arrays.transitions, net_b.arrays.transitions)
    assert np.array_equal(net_a.arrays.refused, net_b.arrays.refused)
    assert np.array_equal(net_a.arrays.completed, net_b.arrays.completed)


class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_feasible_schedule_matches_scalar(self, seed):
        n = 40
        utility = make_utility(n, seed=seed)
        schedule = schedule_for(n, PERIOD.slots_per_period)
        fast_engine = build_engine(n, utility, schedule, vectorized=True)
        slow_engine = build_engine(n, utility, schedule, vectorized=False)
        assert_bit_identical(fast_engine.run(12), slow_engine.run(12))
        assert_same_node_state(fast_engine.network, slow_engine.network)

    def test_refusals_match_scalar(self):
        # T=2 commands each node twice per recharge window (rho=3):
        # every second command is refused, deterministically.
        n = 30
        utility = make_utility(n, seed=4)
        schedule = schedule_for(n, 2)
        fast_engine = build_engine(n, utility, schedule, vectorized=True)
        slow_engine = build_engine(n, utility, schedule, vectorized=False)
        fast = fast_engine.run(10)
        slow = slow_engine.run(10)
        assert fast.refused_activations > 0
        assert_bit_identical(fast, slow)
        assert_same_node_state(fast_engine.network, slow_engine.network)

    def test_heterogeneous_periods_match_scalar(self):
        n = 30
        utility = make_utility(n, seed=6)
        overrides = {
            i: ChargingPeriod(PERIOD.discharge_time, PERIOD.discharge_time * 6)
            for i in range(0, n, 4)
        }
        schedule = schedule_for(n, PERIOD.slots_per_period)
        fast_engine = build_engine(
            n, utility, schedule, vectorized=True, node_periods=overrides
        )
        slow_engine = build_engine(
            n, utility, schedule, vectorized=False, node_periods=overrides
        )
        assert_bit_identical(fast_engine.run(16), slow_engine.run(16))
        assert_same_node_state(fast_engine.network, slow_engine.network)

    def test_partial_charge_threshold_matches_scalar(self):
        n = 30
        utility = make_utility(n, seed=8)
        schedule = schedule_for(n, 3)
        fast_engine = build_engine(
            n, utility, schedule, vectorized=True, ready_threshold=0.6
        )
        slow_engine = build_engine(
            n, utility, schedule, vectorized=False, ready_threshold=0.6
        )
        assert_bit_identical(fast_engine.run(12), slow_engine.run(12))
        assert_same_node_state(fast_engine.network, slow_engine.network)

    def test_checkpoint_crosses_paths(self):
        # A checkpoint written by the vectorized engine restores into a
        # scalar engine (and vice versa) with an identical continuation.
        n = 24
        utility = make_utility(n, seed=10)
        schedule = schedule_for(n, PERIOD.slots_per_period)
        reference = build_engine(n, utility, schedule, vectorized=True)
        full = reference.run(8)

        fast_engine = build_engine(n, utility, schedule, vectorized=True)
        fast_engine.run(4)
        state = fast_engine.checkpoint()

        slow_engine = build_engine(n, utility, schedule, vectorized=False)
        slow_engine.restore(state)
        assert_bit_identical(slow_engine.advance(4), full)


class TestEligibility:
    def test_auto_mode_prefers_vectorized(self):
        n = 10
        utility = make_utility(n)
        engine = build_engine(
            n, utility, schedule_for(n, 4), vectorized=None
        )
        assert engine._vectorized

    def test_observe_override_forces_scalar(self):
        class Watching(SchedulePolicy):
            def observe(self, slot, reports):
                pass

        n = 10
        utility = make_utility(n)
        network = SensorNetwork(n, PERIOD, utility)
        engine = SimulationEngine(
            network, Watching(schedule_for(n, 4)), vectorized=None
        )
        assert not engine._vectorized
        with pytest.raises(ValueError, match="observe"):
            SimulationEngine(
                network, Watching(schedule_for(n, 4)), vectorized=True
            )

    def test_node_reports_force_scalar(self):
        n = 10
        utility = make_utility(n)
        network = SensorNetwork(n, PERIOD, utility)
        engine = SimulationEngine(
            network,
            SchedulePolicy(schedule_for(n, 4)),
            keep_node_reports=True,
        )
        assert not engine._vectorized


class TestSensingFilterCallSites:
    """The filter's three call sites: begin, per-slot step, restore."""

    @staticmethod
    def stuck(sensor, slot):
        return sensor % 4 != 0

    def test_begin_disables_memo(self):
        n = 20
        utility = make_utility(n)
        engine = build_engine(
            n,
            utility,
            schedule_for(n, 4),
            vectorized=None,
            sensing_filter=self.stuck,
        )
        engine.run(2)
        assert engine._accumulator._memo is None
        unfiltered = build_engine(
            n, utility, schedule_for(n, 4), vectorized=None
        )
        unfiltered.run(2)
        assert unfiltered._accumulator._memo is not None

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_step_excludes_after_activity_mask(self, vectorized):
        # Stuck sensors are dropped from the recorded active set, but
        # their batteries drain exactly as if they had reported: the
        # filter applies after the mask, not to the node dynamics.
        n = 20
        utility = make_utility(n, seed=3)
        schedule = schedule_for(n, 4)
        filtered = build_engine(
            n,
            utility,
            schedule,
            vectorized=vectorized,
            sensing_filter=self.stuck,
        )
        plain = build_engine(n, utility, schedule, vectorized=vectorized)
        filtered_result = filtered.run(4)
        plain.run(4)
        for record in filtered_result.accumulator.records:
            assert all(v % 4 != 0 for v in record.active_set)
        assert_same_node_state(filtered.network, plain.network)

    def test_filtered_paths_agree_bitwise(self):
        n = 30
        utility = make_utility(n, seed=5)
        schedule = schedule_for(n, 4)
        fast_engine = build_engine(
            n, utility, schedule, vectorized=True, sensing_filter=self.stuck
        )
        slow_engine = build_engine(
            n, utility, schedule, vectorized=False, sensing_filter=self.stuck
        )
        assert_bit_identical(fast_engine.run(8), slow_engine.run(8))

    def test_restore_keeps_filter_semantics(self):
        n = 24
        utility = make_utility(n, seed=7)
        schedule = schedule_for(n, 4)
        reference = build_engine(
            n, utility, schedule, vectorized=None, sensing_filter=self.stuck
        )
        full = reference.run(8)

        first = build_engine(
            n, utility, schedule, vectorized=None, sensing_filter=self.stuck
        )
        first.run(4)
        state = first.checkpoint()

        resumed = build_engine(
            n, utility, schedule, vectorized=None, sensing_filter=self.stuck
        )
        resumed.restore(state)
        assert resumed._accumulator._memo is None  # third call site
        assert_bit_identical(resumed.advance(4), full)


class OutOfRangeCommands(ActivationPolicy):
    """A periodic schedule plus ids no node has, both too large and
    negative; one frozenset object per slot of the period."""

    def __init__(self, schedule, n):
        self.sets = [
            s | {n, n + 5, -1, -3} for s in schedule.active_sets()
        ]

    def decide(self, slot, network):
        return self.sets[slot % len(self.sets)]


class ReshuffledCommands(ActivationPolicy):
    """Equal-content frozensets, a fresh object built in a different
    insertion order every slot.  Each id comes with an out-of-range
    twin 1024 higher that lands in the same hash bucket, so the
    insertion order shows in the iteration order."""

    def __init__(self, schedule):
        self.schedule = schedule

    def decide(self, slot, network):
        ids = sorted(self.schedule.active_set(slot))
        ids += [v + 1024 for v in ids]
        random.Random(slot).shuffle(ids)
        return frozenset(ids)


class FreshRandomCommands(ActivationPolicy):
    """A fresh random command set every slot, as threshold policies
    build them."""

    def __init__(self, n):
        self.n = n
        self.issued = []

    def decide(self, slot, network):
        rng = random.Random(slot)
        commands = frozenset(v for v in range(self.n) if rng.random() < 0.5)
        self.issued.append(commands)
        return commands


def assert_equal_records(a, b):
    """Every ``SlotRecord`` field equal, ``per_target`` arrays included."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert (ra.slot, ra.active_set, ra.utility, ra.refused_activations) == (
            rb.slot,
            rb.active_set,
            rb.utility,
            rb.refused_activations,
        )
        assert np.array_equal(ra.per_target, rb.per_target)


def run_with_sink(engine, path, slots, restore_after=None, rebuild=None):
    """Run ``slots`` slots into a JSONL file; optionally checkpoint after
    ``restore_after`` slots and continue on ``rebuild()``'s engine."""
    sink = obs_events.EventSink(path)
    previous = obs_events.set_sink(sink)
    try:
        if restore_after is None:
            result = engine.run(slots)
        else:
            engine.run(restore_after)
            state = engine.checkpoint()
            engine = rebuild()
            engine.restore(state)
            result = engine.advance(slots - restore_after)
    finally:
        obs_events.set_sink(previous)
        sink.close()
    return engine, result, path.read_bytes()


class TestSlotCaches:
    """The fast path's per-distinct-set caches change no output byte."""

    N = 30
    SLOTS = 3 * PERIOD.slots_per_period + 3

    def policy_engine(self, policy, vectorized, sensing_filter=None):
        network = SensorNetwork(self.N, PERIOD, make_utility(self.N, seed=2))
        return SimulationEngine(
            network,
            policy,
            vectorized=vectorized,
            sensing_filter=sensing_filter,
        )

    def assert_same_run(self, tmp_path, make_policy, **options):
        fast_engine, fast, fast_bytes = run_with_sink(
            self.policy_engine(make_policy(), True, **options),
            tmp_path / "fast.jsonl",
            self.SLOTS,
        )
        slow_engine, slow, slow_bytes = run_with_sink(
            self.policy_engine(make_policy(), False, **options),
            tmp_path / "slow.jsonl",
            self.SLOTS,
        )
        assert fast_bytes == slow_bytes
        assert_equal_records(fast.accumulator.records, slow.accumulator.records)
        assert_bit_identical(fast, slow)
        assert_same_node_state(fast_engine.network, slow_engine.network)
        return fast_engine

    def test_out_of_range_commands(self, tmp_path):
        schedule = schedule_for(self.N, PERIOD.slots_per_period)
        engine = self.assert_same_run(
            tmp_path, lambda: OutOfRangeCommands(schedule, self.N)
        )
        assert len(engine._commands) == PERIOD.slots_per_period
        events = obs_events.read_events(tmp_path / "fast.jsonl")
        assert events[0]["commanded"][:2] == [-3, -1]
        assert events[0]["commanded"][-2:] == [self.N, self.N + 5]

    def test_reshuffled_equal_commands(self, tmp_path):
        schedule = schedule_for(self.N, 3)
        policy = ReshuffledCommands(schedule)
        orders = {tuple(policy.decide(slot, None)) for slot in range(0, 30, 3)}
        assert len(orders) > 1  # equal sets, different iteration orders
        self.assert_same_run(tmp_path, lambda: ReshuffledCommands(schedule))

    def test_sensing_filter(self, tmp_path):
        schedule = schedule_for(self.N, PERIOD.slots_per_period)
        self.assert_same_run(
            tmp_path,
            lambda: SchedulePolicy(schedule),
            sensing_filter=TestSensingFilterCallSites.stuck,
        )

    def test_restore_mid_period(self, tmp_path):
        schedule = schedule_for(self.N, PERIOD.slots_per_period)
        build = lambda vectorized: self.policy_engine(  # noqa: E731
            SchedulePolicy(schedule), vectorized
        )
        _, reference, reference_bytes = run_with_sink(
            build(False), tmp_path / "slow.jsonl", self.SLOTS
        )
        middle = PERIOD.slots_per_period + 2
        resumed, result, resumed_bytes = run_with_sink(
            build(True),
            tmp_path / "resumed.jsonl",
            self.SLOTS,
            restore_after=middle,
            rebuild=lambda: build(True),
        )
        assert resumed_bytes == reference_bytes
        assert_equal_records(
            result.accumulator.records, reference.accumulator.records
        )
        assert_bit_identical(result, reference)
        # The resumed engine rebuilt its caches from the restored state.
        assert 0 < len(resumed._active_sets) <= SLOT_CACHE_ENTRIES

    def test_ids_are_encoded_only_for_a_sink(self, tmp_path):
        schedule = schedule_for(self.N, PERIOD.slots_per_period)

        def encoded_entries(engine):
            entries = [
                *engine._commands._entries.values(),
                *engine._active_sets._entries.values(),
            ]
            assert len(entries) > PERIOD.slots_per_period
            return [entry[2] is not None for entry in entries]

        quiet = self.policy_engine(SchedulePolicy(schedule), True)
        assert obs_events.get_sink() is None
        quiet.run(self.SLOTS)
        assert not any(encoded_entries(quiet))
        listened, _, _ = run_with_sink(
            self.policy_engine(SchedulePolicy(schedule), True),
            tmp_path / "fast.jsonl",
            self.SLOTS,
        )
        assert all(encoded_entries(listened))

    def test_caches_stay_bounded_under_fresh_sets(self, tmp_path):
        slots = SLOT_CACHE_ENTRIES + 40
        policy = FreshRandomCommands(self.N)
        engine, fast, fast_bytes = run_with_sink(
            self.policy_engine(policy, True),
            tmp_path / "fast.jsonl",
            slots,
        )
        _, slow, slow_bytes = run_with_sink(
            self.policy_engine(FreshRandomCommands(self.N), False),
            tmp_path / "slow.jsonl",
            slots,
        )
        assert fast_bytes == slow_bytes
        assert_bit_identical(fast, slow)
        for cache in (engine._commands, engine._active_sets):
            assert len(cache) == SLOT_CACHE_ENTRIES  # filled, then evicting
        # Oldest first: exactly the last SLOT_CACHE_ENTRIES command sets
        # are kept, the one before them evicted.
        issued = policy.issued
        assert len(issued) == slots and len(set(issued)) == slots
        first_kept = slots - SLOT_CACHE_ENTRIES
        assert engine._commands.lookup(id(issued[first_kept - 1])) is None
        assert all(
            engine._commands.lookup(id(commands))[0] is commands
            for commands in issued[first_kept:]
        )


class TestEventBytesGolden:
    """The ``engine.slot`` stream of a greedy-planned city, byte for byte.

    ``TestSlotCaches`` compares the two stepping paths with each other,
    and both go through the same JSON encoder; this pin also catches an
    encoder change that alters both sides alike.  The digest and length
    were recorded before the event sink learned to splice pre-encoded
    id lists.
    """

    SENSORS = 2000
    SLOTS = 200
    LENGTH = 916_225
    SHA256 = "4d7157e33a31385624920bb002469d9dfbad3a48f01ba2a18def08bb00529c65"

    @pytest.fixture(scope="class")
    def planned_city(self):
        scenario = city_scenario(self.SENSORS, districts=8, seed=1)
        planned = solver.solve(scenario.problem(), method="greedy")
        return scenario, planned.periodic

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_stream_matches_golden_digest(
        self, planned_city, vectorized, tmp_path
    ):
        scenario, schedule = planned_city
        network = SensorNetwork(
            num_sensors=scenario.num_sensors,
            period=scenario.period,
            utility=scenario.utility,
            node_periods=scenario.node_periods,
        )
        engine = SimulationEngine(
            network, SchedulePolicy(schedule), vectorized=vectorized
        )
        _, _, stream = run_with_sink(engine, tmp_path / "city.jsonl", self.SLOTS)
        assert len(stream) == self.LENGTH
        assert hashlib.sha256(stream).hexdigest() == self.SHA256
