"""Tests for schedule data types and feasibility (Sec. II-B, IV-A-1)."""

import pickle
import random

import pytest

from repro.core.greedy import greedy_schedule
from repro.core.schedule import (
    InfeasibleScheduleError,
    PeriodicSchedule,
    ScheduleMode,
    UnrolledSchedule,
)
from repro.io.serialization import schedule_to_dict
from repro.utility.detection import HomogeneousDetectionUtility

from tests.conftest import UTILITY_FAMILIES, random_problem

UTILITY = HomogeneousDetectionUtility(range(6), p=0.4)


class TestPeriodicActiveMode:
    def test_active_sets(self):
        sched = PeriodicSchedule(
            slots_per_period=3, assignment={0: 0, 1: 1, 2: 1, 3: 2}
        )
        sets = sched.active_sets()
        assert sets == (
            frozenset({0}),
            frozenset({1, 2}),
            frozenset({3}),
        )

    def test_unassigned_sensors_never_active(self):
        sched = PeriodicSchedule(slots_per_period=2, assignment={0: 0})
        union = frozenset().union(*sched.active_sets())
        assert union == frozenset({0})

    def test_out_of_range_slot_rejected(self):
        with pytest.raises(InfeasibleScheduleError, match="outside"):
            PeriodicSchedule(slots_per_period=2, assignment={0: 5})

    def test_slot_of(self):
        sched = PeriodicSchedule(slots_per_period=3, assignment={0: 2})
        assert sched.slot_of(0) == 2
        assert sched.slot_of(9) is None

    def test_active_set_wraps_periodically(self):
        sched = PeriodicSchedule(slots_per_period=2, assignment={0: 0, 1: 1})
        assert sched.active_set(0) == sched.active_set(2) == frozenset({0})
        assert sched.active_set(1) == sched.active_set(5) == frozenset({1})

    def test_period_utility(self):
        sched = PeriodicSchedule(
            slots_per_period=2, assignment={0: 0, 1: 0, 2: 1}
        )
        expected = UTILITY.value({0, 1}) + UTILITY.value({2})
        assert sched.period_utility(UTILITY) == pytest.approx(expected)

    def test_average_slot_utility(self):
        sched = PeriodicSchedule(slots_per_period=2, assignment={0: 0})
        assert sched.average_slot_utility(UTILITY) == pytest.approx(
            UTILITY.value({0}) / 2
        )

    def test_total_utility_scales_with_periods(self):
        sched = PeriodicSchedule(slots_per_period=2, assignment={0: 0, 1: 1})
        one = sched.total_utility(UTILITY, num_periods=1)
        assert sched.total_utility(UTILITY, num_periods=5) == pytest.approx(5 * one)

    def test_total_utility_validates_periods(self):
        sched = PeriodicSchedule(slots_per_period=2, assignment={0: 0})
        with pytest.raises(ValueError, match=">= 1"):
            sched.total_utility(UTILITY, num_periods=0)

    def test_scheduled_sensors(self):
        sched = PeriodicSchedule(slots_per_period=2, assignment={0: 0, 3: 1})
        assert sched.scheduled_sensors == frozenset({0, 3})

    def test_str_lists_slots(self):
        sched = PeriodicSchedule(slots_per_period=2, assignment={0: 0})
        assert "t0:[0]" in str(sched)


class TestPeriodicPassiveMode:
    def test_active_sets_complement(self):
        sched = PeriodicSchedule(
            slots_per_period=3,
            assignment={0: 0, 1: 1, 2: 1},
            mode=ScheduleMode.PASSIVE_SLOT,
        )
        sets = sched.active_sets()
        assert sets[0] == frozenset({1, 2})
        assert sets[1] == frozenset({0})
        assert sets[2] == frozenset({0, 1, 2})

    def test_every_sensor_active_t_minus_1_slots(self):
        sched = PeriodicSchedule(
            slots_per_period=4,
            assignment={v: v % 4 for v in range(6)},
            mode=ScheduleMode.PASSIVE_SLOT,
        )
        counts = {v: 0 for v in range(6)}
        for s in sched.active_sets():
            for v in s:
                counts[v] += 1
        assert all(c == 3 for c in counts.values())


def scrambled_schedule(mode):
    # Ids inserted out of order and spread far apart, so the sets'
    # iteration order depends on how they were built.
    ids = list(range(150)) + [10**6 + 7 * k for k in range(50)]
    random.Random(3).shuffle(ids)
    return PeriodicSchedule(
        slots_per_period=4,
        assignment={v: (v * 5) % 4 for v in ids},
        mode=mode,
    )


@pytest.mark.parametrize("mode", list(ScheduleMode))
class TestActiveSetCache:
    """``active_sets()`` is built once per schedule object."""

    def test_same_object_across_calls_and_periods(self, mode):
        sched = scrambled_schedule(mode)
        sets = sched.active_sets()
        assert sched.active_sets() is sets
        for slot in range(12):
            assert sched.active_set(slot) is sets[slot % 4]
            assert sched.active_set(slot) is sched.active_set(slot + 4)

    def test_equals_fresh_build_in_iteration_order(self, mode):
        sched = scrambled_schedule(mode)
        sched.active_sets()
        fresh = scrambled_schedule(mode)._build_active_sets()
        for cached, built in zip(sched.active_sets(), fresh):
            assert cached == built
            assert list(cached) == list(built)

    def test_equality_serialization_and_pickle_unchanged(self, mode):
        cold = scrambled_schedule(mode)
        warm = scrambled_schedule(mode)
        before = schedule_to_dict(warm)
        warm.active_sets()
        assert warm == cold
        assert schedule_to_dict(warm) == before == schedule_to_dict(cold)
        assert pickle.dumps(warm) == pickle.dumps(cold)
        restored = pickle.loads(pickle.dumps(warm))
        assert restored == warm
        assert restored.active_sets() == warm.active_sets()
        assert [list(s) for s in restored.active_sets()] == [
            list(s) for s in warm.active_sets()
        ]


class TestUnrolling:
    def test_unroll_repeats(self):
        sched = PeriodicSchedule(slots_per_period=2, assignment={0: 0, 1: 1})
        unrolled = sched.unroll(3)
        assert unrolled.total_slots == 6
        assert unrolled.num_periods == 3
        assert unrolled.active_sets[0] == unrolled.active_sets[2]
        assert unrolled.active_sets[1] == unrolled.active_sets[5]

    def test_unroll_validates(self):
        sched = PeriodicSchedule(slots_per_period=2, assignment={0: 0})
        with pytest.raises(ValueError, match=">= 1"):
            sched.unroll(0)

    def test_unrolled_utility_matches_periodic(self):
        sched = PeriodicSchedule(
            slots_per_period=2, assignment={0: 0, 1: 0, 2: 1}
        )
        unrolled = sched.unroll(4)
        assert unrolled.total_utility(UTILITY) == pytest.approx(
            sched.total_utility(UTILITY, num_periods=4)
        )
        assert unrolled.average_slot_utility(UTILITY) == pytest.approx(
            sched.average_slot_utility(UTILITY)
        )

    @pytest.mark.parametrize("family", UTILITY_FAMILIES)
    def test_memoized_total_equals_per_slot_sum(self, family):
        # total_utility memoizes slot values by set identity across the
        # alpha repeats; it must add exactly the per-slot series.
        seed = 9100 + UTILITY_FAMILIES.index(family)
        problem = random_problem(seed, num_sensors=9, rho=3.0, family=family)
        unrolled = greedy_schedule(problem).unroll(3)
        series = unrolled.per_slot_utilities(problem.utility)
        assert len(set(series)) > 1
        assert unrolled.total_utility(problem.utility) == sum(series)

    def test_passive_mode_sets_flag(self):
        sched = PeriodicSchedule(
            slots_per_period=2,
            assignment={0: 0},
            mode=ScheduleMode.PASSIVE_SLOT,
        )
        assert sched.unroll(2).rho_at_most_one


class TestFeasibility:
    def test_periodic_unroll_always_feasible_sparse(self):
        sched = PeriodicSchedule(
            slots_per_period=4, assignment={v: v % 4 for v in range(10)}
        )
        sched.unroll(5).validate_feasible()

    def test_window_violation_within_period(self):
        # Same sensor twice in one period is impossible with a dict
        # assignment, so build the unrolled schedule directly.
        bad = UnrolledSchedule(
            slots_per_period=3,
            active_sets=(frozenset({0}), frozenset({0}), frozenset()),
        )
        with pytest.raises(InfeasibleScheduleError, match="sensor 0"):
            bad.validate_feasible()

    def test_window_violation_across_period_boundary(self):
        # Active at slots 2 and 3: fine per-period (period = 3) only if
        # the window straddling the boundary is checked -- it is not fine.
        bad = UnrolledSchedule(
            slots_per_period=3,
            active_sets=(
                frozenset(),
                frozenset(),
                frozenset({0}),
                frozenset({0}),
                frozenset(),
                frozenset(),
            ),
        )
        assert not bad.is_feasible()

    def test_exactly_t_apart_is_feasible(self):
        good = UnrolledSchedule(
            slots_per_period=3,
            active_sets=(
                frozenset({0}),
                frozenset(),
                frozenset(),
                frozenset({0}),
                frozenset(),
                frozenset(),
            ),
        )
        good.validate_feasible()

    def test_dense_regime_limit(self):
        # rho <= 1 with T = 3: active 2-of-3 allowed, 3-of-3 not.
        ok = UnrolledSchedule(
            slots_per_period=3,
            active_sets=(frozenset({0}), frozenset({0}), frozenset()),
            rho_at_most_one=True,
        )
        ok.validate_feasible()
        bad = UnrolledSchedule(
            slots_per_period=3,
            active_sets=(frozenset({0}), frozenset({0}), frozenset({0})),
            rho_at_most_one=True,
        )
        assert not bad.is_feasible()

    def test_sensors_ever_active(self):
        sched = UnrolledSchedule(
            slots_per_period=2,
            active_sets=(frozenset({0, 2}), frozenset({1})),
        )
        assert sched.sensors_ever_active() == frozenset({0, 1, 2})

    def test_per_slot_utilities(self):
        sched = UnrolledSchedule(
            slots_per_period=2,
            active_sets=(frozenset({0}), frozenset()),
        )
        values = sched.per_slot_utilities(UTILITY)
        assert values == [pytest.approx(0.4), 0.0]

    def test_empty_schedule_average(self):
        sched = UnrolledSchedule(slots_per_period=1, active_sets=())
        assert sched.average_slot_utility(UTILITY) == 0.0
