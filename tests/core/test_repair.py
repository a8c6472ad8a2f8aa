"""Tests for incremental greedy schedule repair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import GreedyTrace, greedy_schedule
from repro.core.problem import SchedulingProblem
from repro.core.repair import greedy_repair
from repro.energy.period import ChargingPeriod
from repro.utility.detection import HomogeneousDetectionUtility
from repro.utility.target_system import TargetSystem

from tests.conftest import (
    UTILITY_FAMILIES,
    marginal_evals_delta,
    random_utility,
    rounding_broke_submodularity,
)

PERIOD = ChargingPeriod.paper_sunny()
T = PERIOD.slots_per_period


class TestReductionToAlgorithm1:
    def test_full_ground_set_matches_greedy_schedule(self):
        n = 12
        utility = HomogeneousDetectionUtility(range(n), p=0.4)
        problem = SchedulingProblem(
            num_sensors=n, period=PERIOD, utility=utility, num_periods=1
        )
        reference = greedy_schedule(problem)
        repaired = greedy_repair(range(n), T, utility)
        assert repaired.assignment == reference.assignment

    def test_subset_only_schedules_survivors(self):
        utility = HomogeneousDetectionUtility(range(10), p=0.4)
        survivors = [0, 2, 4, 6, 8]
        repaired = greedy_repair(survivors, T, utility)
        assert sorted(repaired.assignment) == survivors


class TestConstraints:
    def test_allowed_slots_respected(self):
        utility = HomogeneousDetectionUtility(range(6), p=0.4)
        repaired = greedy_repair(
            range(6), T, utility, allowed_slots={0: [3], 1: [2, 3]}
        )
        assert repaired.assignment[0] == 3
        assert repaired.assignment[1] in (2, 3)

    def test_empty_allowed_slots_is_an_error(self):
        utility = HomogeneousDetectionUtility(range(2), p=0.4)
        with pytest.raises(ValueError, match="no allowed slots"):
            greedy_repair(range(2), T, utility, allowed_slots={0: []})

    def test_out_of_range_slot_is_an_error(self):
        utility = HomogeneousDetectionUtility(range(2), p=0.4)
        with pytest.raises(ValueError, match="outside"):
            greedy_repair(range(2), T, utility, allowed_slots={0: [T]})

    def test_bad_period_is_an_error(self):
        utility = HomogeneousDetectionUtility(range(2), p=0.4)
        with pytest.raises(ValueError, match="slots_per_period"):
            greedy_repair(range(2), 0, utility)


class TestIncumbentPreference:
    def test_prefer_keeps_incumbent_on_ties(self):
        """A symmetric instance has many equivalent optima; with prefer,
        the repair must return the incumbent assignment rather than an
        arbitrary relabeling."""
        n = 8
        utility = HomogeneousDetectionUtility(range(n), p=0.4)
        incumbent = greedy_repair(range(n), T, utility).assignment
        # Any permutation of slot labels is utility-equivalent here.
        rotated = {v: (t + 1) % T for v, t in incumbent.items()}
        stabilized = greedy_repair(range(n), T, utility, prefer=rotated)
        assert stabilized.assignment == rotated

    def test_prefer_does_not_block_improvements(self):
        """When the incumbent is genuinely suboptimal the repair must
        still move sensors off their preferred slots."""
        utility = TargetSystem.homogeneous_detection(
            [{0, 1}, {2, 3}], 0.9
        )
        # Incumbent crams everyone into slot 0, leaving slots 1-3 empty.
        bad = {v: 0 for v in range(4)}
        repaired = greedy_repair(range(4), T, utility, prefer=bad)
        trace = GreedyTrace()
        best = greedy_repair(range(4), T, utility, trace=trace)
        assert len(set(repaired.assignment.values())) > 1
        # Preference only breaks ties: the repair reaches the utility of
        # the unconstrained one.
        assert repaired.period_utility(utility) == best.period_utility(utility)
        assert trace.total_utility == pytest.approx(best.period_utility(utility))

    def test_trace_records_placements(self):
        utility = HomogeneousDetectionUtility(range(5), p=0.4)
        trace = GreedyTrace()
        repaired = greedy_repair(range(5), T, utility, trace=trace)
        assert len(trace.steps) == 5
        assert trace.placements() == [
            (s.sensor, s.slot) for s in trace.steps
        ]
        assert dict(trace.placements()) == repaired.assignment
        assert trace.total_utility == pytest.approx(
            repaired.period_utility(utility)
        )


def _oracle_repair(sensors, slots_per_period, utility, allowed_slots, prefer):
    """Brute-force repair, independent of the greedy drivers.

    Each step scans every allowed (sensor, slot) pair of an unplaced
    sensor, measures ``utility.marginal`` on the slot's set built by
    the same ``S | {v}`` chain, and places the pair of least
    ``(-gain, tie rank, sensor, slot)``.  Returns (sensor, slot, gain,
    total) per step.
    """

    def rank(v, t):
        if v not in prefer:
            return 1
        if t == prefer[v]:
            return 0
        return 1 if t > prefer[v] else 2

    slot_sets = [frozenset()] * slots_per_period
    unplaced = set(sensors)
    total = 0.0
    steps = []
    while unplaced:
        neg_gain, _, v, t = min(
            (-utility.marginal(v, slot_sets[t]), rank(v, t), v, t)
            for v in unplaced
            for t in allowed_slots.get(v, range(slots_per_period))
        )
        unplaced.remove(v)
        slot_sets[t] = slot_sets[t] | {v}
        total += -neg_gain
        steps.append((v, t, -neg_gain, total))
    return steps


def _bits(steps):
    return [(v, t, float(g).hex(), float(total).hex()) for v, t, g, total in steps]


@st.composite
def repair_cases(draw):
    family = draw(st.sampled_from(UTILITY_FAMILIES))
    n = draw(st.integers(1, 7))
    slots = draw(st.integers(1, 4))
    utility = random_utility(
        family, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    )
    sensors = draw(st.sets(st.integers(0, n - 1)))
    allowed = draw(
        st.dictionaries(
            st.integers(0, n - 1),
            st.sets(st.integers(0, slots - 1), min_size=1).map(sorted),
        )
    )
    prefer = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, slots - 1)))
    return sensors, slots, utility, allowed, prefer


class TestConstrainedRepairOracle:
    @settings(max_examples=150, deadline=None)
    @given(repair_cases())
    def test_matches_brute_force_step_for_step(self, case):
        """Random survivors, allowed slots and incumbents: every step
        picks the oracle's pair with the same gain and total bits, and
        the work counts under the ``repair`` label only."""
        sensors, slots, utility, allowed, prefer = case
        trace = GreedyTrace()
        schedule, evals = marginal_evals_delta(
            lambda: greedy_repair(
                sensors,
                slots,
                utility,
                allowed_slots=allowed,
                prefer=prefer,
                trace=trace,
            )
        )
        expected = _oracle_repair(sensors, slots, utility, allowed, prefer)
        steps = [(s.sensor, s.slot, s.gain, s.total_after) for s in trace.steps]
        assert len(steps) == len(expected) == len(sensors)
        got, want = _bits(steps), _bits(expected)
        if got != want:
            # Only a rounding break of submodularity excuses a divergence
            # (see test_lazy_trace_equals_naive_bit_for_bit).
            k = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            v, t, gain, _ = expected[k]
            assert rounding_broke_submodularity(
                utility,
                False,
                frozenset(),
                [(u, s) for u, s, _, _ in expected[:k]],
                (v, t),
                -gain,
            ), f"repair and oracle diverge at step {k} with no rounding witness"
        else:
            assert schedule.assignment == {v: t for v, t, _, _ in expected}
        pairs = sum(len(allowed.get(v, range(slots))) for v in sensors)
        assert evals["repair"] >= pairs
        assert {v: n for v, n in evals.items() if n} == (
            {"repair": evals["repair"]} if pairs else {}
        )
