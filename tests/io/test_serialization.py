"""Tests for JSON round-trips of schedules, utilities and results."""

import json

import pytest

from repro.core.problem import SchedulingProblem
from repro.core.schedule import PeriodicSchedule, ScheduleMode, UnrolledSchedule
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.io.serialization import (
    result_summary,
    schedule_from_dict,
    schedule_to_dict,
    utility_from_dict,
    utility_to_dict,
)
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import DetectionUtility, HomogeneousDetectionUtility
from repro.utility.logsum import LogSumUtility
from repro.utility.operations import CappedCardinalityUtility
from repro.utility.target_system import TargetSystem


def roundtrip_json(payload):
    """Force an actual JSON encode/decode to catch non-serializable leaks."""
    return json.loads(json.dumps(payload))


class TestScheduleRoundtrip:
    def test_periodic_active(self):
        original = PeriodicSchedule(
            slots_per_period=4, assignment={0: 1, 1: 3, 5: 0}
        )
        restored = schedule_from_dict(roundtrip_json(schedule_to_dict(original)))
        assert isinstance(restored, PeriodicSchedule)
        assert dict(restored.assignment) == dict(original.assignment)
        assert restored.mode is ScheduleMode.ACTIVE_SLOT
        assert restored.active_sets() == original.active_sets()

    def test_periodic_passive(self):
        original = PeriodicSchedule(
            slots_per_period=3,
            assignment={0: 0, 1: 2},
            mode=ScheduleMode.PASSIVE_SLOT,
        )
        restored = schedule_from_dict(roundtrip_json(schedule_to_dict(original)))
        assert restored.mode is ScheduleMode.PASSIVE_SLOT
        assert restored.active_sets() == original.active_sets()

    def test_unrolled(self):
        original = UnrolledSchedule(
            slots_per_period=2,
            active_sets=(frozenset({0, 2}), frozenset(), frozenset({1})),
            rho_at_most_one=True,
        )
        restored = schedule_from_dict(roundtrip_json(schedule_to_dict(original)))
        assert isinstance(restored, UnrolledSchedule)
        assert restored.active_sets == original.active_sets
        assert restored.rho_at_most_one

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            schedule_from_dict({"kind": "mystery"})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            schedule_to_dict("not-a-schedule")


class TestUtilityRoundtrip:
    def assert_same_values(self, a, b, subsets):
        for s in subsets:
            assert a.value(s) == pytest.approx(b.value(s))

    def test_homogeneous_detection(self):
        original = HomogeneousDetectionUtility(range(5), p=0.4)
        restored = utility_from_dict(roundtrip_json(utility_to_dict(original)))
        assert isinstance(restored, HomogeneousDetectionUtility)
        self.assert_same_values(
            original, restored, [frozenset(), {0, 1}, {0, 1, 2, 3, 4}]
        )

    def test_detection(self):
        original = DetectionUtility({0: 0.2, 3: 0.7})
        restored = utility_from_dict(roundtrip_json(utility_to_dict(original)))
        self.assert_same_values(original, restored, [frozenset(), {0}, {0, 3}])

    def test_logsum(self):
        original = LogSumUtility({0: 1.5, 1: 4.0})
        restored = utility_from_dict(roundtrip_json(utility_to_dict(original)))
        self.assert_same_values(original, restored, [frozenset(), {0}, {0, 1}])

    def test_weighted_coverage(self):
        original = WeightedCoverageUtility(
            {0: {1, 2}, 1: {2, 3}}, element_weights={1: 0.5, 2: 2.0, 3: 1.0}
        )
        restored = utility_from_dict(roundtrip_json(utility_to_dict(original)))
        self.assert_same_values(original, restored, [frozenset(), {0}, {0, 1}])

    def test_target_system(self):
        original = TargetSystem.homogeneous_detection([{0, 1}, {1, 2}], p=0.4)
        restored = utility_from_dict(roundtrip_json(utility_to_dict(original)))
        assert isinstance(restored, TargetSystem)
        assert restored.num_targets == 2
        self.assert_same_values(
            original, restored, [frozenset(), {0}, {1}, {0, 1, 2}]
        )

    def test_unknown_utility_rejected(self):
        with pytest.raises(TypeError, match="serializable families"):
            utility_to_dict(CappedCardinalityUtility(range(3), cap=1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown utility kind"):
            utility_from_dict({"kind": "nope"})


class TestResultSummary:
    def test_fields_and_json(self):
        problem = SchedulingProblem(
            num_sensors=6,
            period=ChargingPeriod.paper_sunny(),
            utility=HomogeneousDetectionUtility(range(6), p=0.4),
            num_periods=2,
        )
        result = solve(problem, method="greedy")
        summary = roundtrip_json(result_summary(result))
        assert summary["method"] == "greedy"
        assert summary["num_sensors"] == 6
        assert summary["rho"] == 3.0
        assert summary["average_slot_utility"] == pytest.approx(
            result.average_slot_utility
        )
