"""Unit tests for the Session state machine: resolve modes, rollback,
memoization, checkpointing, and the full-resolve escape hatch."""

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import SchedulingProblem
from repro.core.repair import greedy_repair
from repro.energy.period import ChargingPeriod
from repro.obs.registry import get_registry
from repro.runtime.retry import DeadlineExceededError
from repro.sessions import (
    ColdResolveUnavailableError,
    Delta,
    DeltaError,
    Session,
    SessionClosedError,
    delta_from_dict,
    period_utility_of,
)
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import (
    DetectionUtility,
    HomogeneousDetectionUtility,
)
from repro.utility.incremental import IncrementalEvaluator


def make_problem(n=12, rho=3.0, p=0.4):
    return SchedulingProblem(
        num_sensors=n,
        period=ChargingPeriod.from_ratio(rho),
        utility=HomogeneousDetectionUtility(range(n), p=p),
    )


def cold_plan(problem, failed=()):
    live = sorted(set(range(problem.num_sensors)) - set(failed))
    return dict(
        greedy_repair(
            live, problem.slots_per_period, problem.utility
        ).assignment
    )


class TestCreation:
    def test_initial_plan_matches_cold_greedy(self):
        problem = make_problem()
        session = Session(problem)
        assert session.assignment == cold_plan(problem)
        assert session.seq == 0

    def test_rejects_dense_regime(self):
        problem = SchedulingProblem(
            num_sensors=6,
            period=ChargingPeriod.from_ratio(1.0 / 3.0),
            utility=HomogeneousDetectionUtility(range(6), p=0.4),
        )
        with pytest.raises(ValueError, match="sparse"):
            Session(problem)

    def test_rejects_unsupported_method(self):
        with pytest.raises(ValueError, match="methods"):
            Session(make_problem(), method="random")

    def test_rejects_bad_incumbent(self):
        problem = make_problem(n=6)
        with pytest.raises(ValueError, match="live"):
            Session(problem, incumbent_assignment={0: 0, 1: 1})


class TestApply:
    def test_failure_keeps_assignment_feasible(self):
        session = Session(make_problem())
        outcome = session.apply(
            delta_from_dict({"kind": "sensor-failed", "sensor": 3})
        )
        assert outcome.resolve in ("warm", "none")
        assert outcome.seq == 1
        assert set(session.assignment) == session.live_sensors()
        assert 3 not in session.assignment

    def test_recover_after_fail_hits_memo(self):
        session = Session(make_problem())
        before = dict(session.assignment)
        session.apply(delta_from_dict({"kind": "sensor-failed", "sensor": 3}))
        outcome = session.apply(
            delta_from_dict({"kind": "sensor-recovered", "sensor": 3})
        )
        assert outcome.resolve == "memo"
        assert session.assignment == before

    def test_structural_delta_resolves_cold(self):
        problem = make_problem(rho=3.0)
        session = Session(problem)
        outcome = session.apply(
            delta_from_dict({"kind": "rho-change", "rho": 5})
        )
        assert outcome.resolve == "cold"
        assert outcome.structural
        assert session.slots_per_period == 6
        assert session.assignment == cold_plan(session.problem)

    def test_exact_session_always_matches_cold(self):
        session = Session(make_problem(), consistency="exact")
        for document in (
            {"kind": "sensor-failed", "sensor": 2},
            {"kind": "sensor-failed", "sensor": 7},
            {"kind": "weight-change", "value": 0.6},
            {"kind": "sensor-recovered", "sensor": 2},
        ):
            session.apply(delta_from_dict(document))
            assert session.assignment == cold_plan(
                session.problem, session.failed
            )

    def test_utility_tracks_canonical_recompute(self):
        session = Session(make_problem())
        outcome = session.apply(
            delta_from_dict({"kind": "sensor-failed", "sensor": 0})
        )
        recomputed = period_utility_of(
            session.assignment,
            session.problem.utility,
            session.slots_per_period,
        )
        assert outcome.period_utility == recomputed


class TestRollback:
    def test_invalid_delta_rolls_back(self):
        session = Session(make_problem(n=6))
        before = dict(session.assignment)
        fingerprint = session.state_fingerprint
        with pytest.raises(DeltaError):
            session.apply(
                delta_from_dict({"kind": "sensor-failed", "sensor": 99})
            )
        assert session.assignment == before
        assert session.seq == 0
        assert session.state_fingerprint == fingerprint
        assert session.failed == set()

    def test_repair_crash_rolls_back(self, monkeypatch):
        session = Session(make_problem())
        before = dict(session.assignment)

        import repro.sessions.session as session_module

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic repair crash")

        monkeypatch.setattr(session_module, "scoped_repair", boom)
        with pytest.raises(RuntimeError, match="synthetic"):
            session.apply(
                delta_from_dict({"kind": "sensor-failed", "sensor": 3})
            )
        assert session.assignment == before
        assert session.failed == set()
        # The restored evaluators still work: a later delta commits.
        monkeypatch.undo()
        outcome = session.apply(
            delta_from_dict({"kind": "sensor-failed", "sensor": 3})
        )
        assert outcome.seq == 1
        assert session.period_utility() == period_utility_of(
            session.assignment,
            session.problem.utility,
            session.slots_per_period,
        )

    def test_expired_deadline_rolls_back(self):
        session = Session(make_problem(), consistency="exact")
        before = dict(session.assignment)
        with pytest.raises(DeadlineExceededError):
            session.apply(
                delta_from_dict({"kind": "sensor-failed", "sensor": 3}),
                deadline=time.monotonic() - 1.0,
            )
        assert session.assignment == before
        assert session.seq == 0


class TestOpAccounting:
    def test_every_evaluator_op_reaches_the_registry(self, monkeypatch):
        """Warm repairs, memo re-adoptions and rollbacks all work on the
        session's own evaluators; the ops counter must read exactly the
        ops they did, with none left behind on a replaced list."""
        rng = random.Random(7)
        problem = SchedulingProblem(
            num_sensors=40,
            period=ChargingPeriod.from_ratio(4.0),
            utility=DetectionUtility(
                {v: rng.uniform(0.05, 0.6) for v in range(40)}
            ),
        )
        session = Session(problem)
        registry = get_registry()
        registry.reset()
        done = Counter()
        count = IncrementalEvaluator._count

        def counting(self, op):
            done[(self.family, op)] += 1
            count(self, op)

        monkeypatch.setattr(IncrementalEvaluator, "_count", counting)
        for _ in range(200):
            failed = sorted(session.failed)
            if failed and (len(failed) > 20 or rng.random() < 0.4):
                kind, sensor = "sensor-recovered", rng.choice(failed)
            else:
                kind = "sensor-failed"
                sensor = rng.choice(sorted(session.live_sensors()))
            session.apply(delta_from_dict({"kind": kind, "sensor": sensor}))
        with pytest.raises(DeltaError):  # a rollback flushes too
            session.apply(
                delta_from_dict({"kind": "sensor-failed", "sensor": 99})
            )
        assert done[("detection", "gain")] > 0
        assert done[("detection", "loss")] > 0
        for (family, op), ops in done.items():
            assert registry.sample_value(
                "repro_utility_incremental_ops_total", family=family, op=op
            ) == ops, (family, op)


class TestBreakerHook:
    def test_structural_without_cold_raises(self):
        session = Session(make_problem(rho=3.0))
        with pytest.raises(ColdResolveUnavailableError):
            session.apply(
                delta_from_dict({"kind": "rho-change", "rho": 5}),
                allow_cold=False,
            )
        assert session.slots_per_period == 4  # rolled back

    def test_exact_without_cold_degrades_to_warm(self):
        session = Session(make_problem(), consistency="exact")
        outcome = session.apply(
            delta_from_dict({"kind": "sensor-failed", "sensor": 3}),
            allow_cold=False,
        )
        assert outcome.resolve == "warm"
        assert outcome.degraded

    def test_memo_answer_is_not_degraded(self):
        session = Session(make_problem(), consistency="exact")
        session.apply(delta_from_dict({"kind": "sensor-failed", "sensor": 3}))
        session.apply(
            delta_from_dict({"kind": "sensor-recovered", "sensor": 3})
        )
        outcome = session.apply(
            delta_from_dict({"kind": "sensor-failed", "sensor": 3}),
            allow_cold=False,
        )
        assert outcome.resolve == "memo"
        assert not outcome.degraded


class TestLifecycle:
    def test_closed_session_refuses_applies(self):
        session = Session(make_problem())
        session.close()
        with pytest.raises(SessionClosedError):
            session.apply(
                delta_from_dict({"kind": "sensor-failed", "sensor": 1})
            )

    def test_close_midway_never_commits(self):
        session = Session(make_problem())
        before = dict(session.assignment)

        original = session._check_invariants

        def close_then_check():
            session.closed = True
            original()

        session._check_invariants = close_then_check
        with pytest.raises(SessionClosedError):
            session.apply(
                delta_from_dict({"kind": "sensor-failed", "sensor": 1})
            )
        session._check_invariants = original
        session.closed = False
        assert session.assignment == before
        assert session.seq == 0

    def test_lineage_chains_per_delta(self):
        session = Session(make_problem())
        first = session.apply(
            delta_from_dict({"kind": "sensor-failed", "sensor": 1})
        )
        second = session.apply(
            delta_from_dict({"kind": "sensor-failed", "sensor": 2})
        )
        assert first.lineage and second.lineage
        assert first.lineage != second.lineage
        assert session.lineage == [first.lineage, second.lineage]


class TestFullResolve:
    def test_healthy_session_passes(self):
        session = Session(make_problem())
        session.apply(delta_from_dict({"kind": "sensor-failed", "sensor": 4}))
        outcome = session.full_resolve()
        assert outcome.kind == "full-resolve"
        assert outcome.resolve == "cold"
        assert session.assignment == cold_plan(
            session.problem, session.failed
        )
        assert outcome.seq == 2


class TestCheckpointRoundtrip:
    def test_state_roundtrips(self):
        session = Session(make_problem(), consistency="exact", seed=7)
        session.apply(delta_from_dict({"kind": "sensor-failed", "sensor": 2}))
        session.apply(delta_from_dict({"kind": "weight-change", "value": 0.5}))
        restored = Session.from_state(session.to_state())
        assert restored.assignment == session.assignment
        assert restored.failed == session.failed
        assert restored.seq == session.seq
        assert restored.consistency == "exact"
        assert restored.lineage == session.lineage
        assert restored.period_utility() == session.period_utility()
        # And it keeps working after restore.
        outcome = restored.apply(
            delta_from_dict({"kind": "sensor-recovered", "sensor": 2})
        )
        assert outcome.seq == session.seq + 1


class TestDeltaDataclass:
    def test_delta_is_frozen(self):
        delta = delta_from_dict({"kind": "sensor-failed", "sensor": 1})
        assert isinstance(delta, Delta)
        with pytest.raises(AttributeError):
            delta.sensor = 2


def per_slot_period_utility(assignment, utility, slots):
    """Reference twin of period_utility_of: one scan of the assignment
    per slot."""
    total = 0.0
    for t in range(slots):
        members = frozenset(
            sorted(v for v, slot in assignment.items() if slot == t)
        )
        total += utility.value(members)
    return total


@st.composite
def utilities_and_assignments(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    if draw(st.booleans()):
        utility = DetectionUtility(
            {
                v: draw(st.floats(min_value=0.0, max_value=1.0))
                for v in range(n)
            }
        )
    else:
        utility = WeightedCoverageUtility(
            {
                v: draw(st.sets(st.integers(0, 9), min_size=1, max_size=4))
                for v in range(n)
            },
            element_weights={
                e: draw(st.floats(min_value=0.0, max_value=10.0))
                for e in range(10)
            },
        )
    slots = draw(st.integers(min_value=1, max_value=6))
    # Few sensors over many slots leaves slots empty.
    live = draw(st.lists(st.integers(0, max(n - 1, 0)), unique=True))
    assignment = {
        v: draw(st.integers(0, slots - 1)) for v in live if v < n
    }
    return utility, assignment, slots


class TestPeriodUtility:
    @settings(max_examples=200, deadline=None)
    @given(utilities_and_assignments())
    def test_one_pass_equals_per_slot_reference_bit_for_bit(self, case):
        utility, assignment, slots = case
        fast = period_utility_of(assignment, utility, slots)
        reference = per_slot_period_utility(assignment, utility, slots)
        assert fast.hex() == reference.hex()
