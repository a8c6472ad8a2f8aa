"""Differential suite: delta-solve must equal cold-solve.

For every utility family we run random delta walks through an
``exact``-consistency session and, after every committed delta,
re-plan the *current* live instance cold
(:func:`repro.core.repair.greedy_repair` -- with no constraints this
is bit-for-bit Algorithm 1 restricted to the survivors).  The
session's incumbent must be the *identical* assignment (greedy is
deterministic) and score the identical float utility through the
canonical accumulator.

Warm sessions promise less: always feasible, and for the homogeneous
family (where any balanced assignment is optimal under greedy's
tie-breaking value) the same utility as cold; for weighted coverage,
at least 95% of it.  These promises are pinned here too.
"""

import random

import numpy as np
import pytest

from repro.batched.batch import family_of
from repro.core.problem import SchedulingProblem
from repro.core.repair import greedy_repair
from repro.energy.period import ChargingPeriod
from repro.obs.registry import get_registry
from repro.sessions import (
    DeltaError,
    Session,
    apply_delta,
    delta_from_dict,
    period_utility_of,
)
from repro.utility.coverage_count import WeightedCoverageUtility
from repro.utility.detection import (
    DetectionUtility,
    HomogeneousDetectionUtility,
)
from repro.utility.logsum import LogSumUtility
from repro.utility.target_system import TargetSystem

N = 14


def _families():
    rng = random.Random(20260807)
    covers = {
        v: {rng.randrange(8) for _ in range(rng.randint(1, 3))}
        for v in range(N)
    }
    return {
        "homogeneous": HomogeneousDetectionUtility(range(N), p=0.4),
        "detection": DetectionUtility(
            {v: 0.2 + 0.05 * (v % 10) for v in range(N)}
        ),
        "logsum": LogSumUtility({v: 1.0 + 0.3 * v for v in range(N)}),
        "weighted-coverage": WeightedCoverageUtility(
            covers,
            element_weights={e: 1.0 + 0.5 * e for e in range(8)},
        ),
        "target-system": TargetSystem(
            [set(range(0, 8)), set(range(5, N))],
            [
                HomogeneousDetectionUtility(range(N), p=0.3),
                HomogeneousDetectionUtility(range(N), p=0.5),
            ],
        ),
    }


FAMILIES = sorted(_families())


def make_problem(family):
    return SchedulingProblem(
        num_sensors=N,
        period=ChargingPeriod.from_ratio(3.0),
        utility=_families()[family],
    )


def random_delta(rng, session):
    """A delta that is *valid* for the current session state."""
    live = sorted(session.live_sensors())
    failed = sorted(session.failed)
    choices = []
    if len(live) > 3:
        choices.append({"kind": "sensor-failed", "sensor": rng.choice(live)})
    if failed:
        choices.append(
            {"kind": "sensor-recovered", "sensor": rng.choice(failed)}
        )
    choices.append(
        {"kind": "rho-change", "rho": rng.choice([2, 3, 4])}
    )
    family = type(session.problem.utility).__name__
    if family == "HomogeneousDetectionUtility":
        choices.append(
            {"kind": "weight-change", "value": rng.choice([0.3, 0.5, 0.7])}
        )
        choices.append({"kind": "sensor-added"})
    elif family == "DetectionUtility":
        anyone = rng.randrange(session.problem.num_sensors)
        choices.append(
            {"kind": "weight-change", "sensor": anyone, "value": rng.random()}
        )
        choices.append({"kind": "sensor-added", "p": rng.random()})
    elif family == "LogSumUtility":
        anyone = rng.randrange(session.problem.num_sensors)
        choices.append(
            {
                "kind": "weight-change",
                "sensor": anyone,
                "value": 0.5 + 2.0 * rng.random(),
            }
        )
        choices.append(
            {"kind": "sensor-added", "weight": 0.5 + rng.random()}
        )
    elif family == "WeightedCoverageUtility":
        choices.append(
            {
                "kind": "target-weight-change",
                "element": rng.randrange(8),
                "value": 0.5 + 3.0 * rng.random(),
            }
        )
        choices.append(
            {
                "kind": "sensor-added",
                "covers": sorted({rng.randrange(8), rng.randrange(8)}),
            }
        )
    return delta_from_dict(rng.choice(choices))


def cold_reference(session):
    """Re-plan the session's current instance from scratch."""
    live = sorted(session.live_sensors())
    schedule = greedy_repair(
        live, session.slots_per_period, session.problem.utility
    )
    return dict(schedule.assignment)


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_walk_is_bit_for_bit_cold(family):
    rng = random.Random(hash(family) & 0xFFFF)
    session = Session(make_problem(family), consistency="exact")
    committed = 0
    for _ in range(25):
        delta = random_delta(rng, session)
        try:
            outcome = session.apply(delta)
        except DeltaError:
            continue  # e.g. a rho-change that lands on the current rho
        committed += 1
        reference = cold_reference(session)
        assert session.assignment == reference, (
            f"{family}: delta #{outcome.seq} ({delta.kind}) diverged "
            "from the cold re-plan"
        )
        assert outcome.period_utility == period_utility_of(
            reference, session.problem.utility, session.slots_per_period
        )
    assert committed >= 15  # the walk actually exercised the session


@pytest.mark.parametrize("family", FAMILIES)
def test_warm_walk_stays_feasible(family):
    rng = random.Random(1 + (hash(family) & 0xFFFF))
    session = Session(make_problem(family), consistency="warm")
    for _ in range(25):
        delta = random_delta(rng, session)
        try:
            session.apply(delta)
        except DeltaError:
            continue
        live = session.live_sensors()
        assert set(session.assignment) == live
        assert all(
            0 <= t < session.slots_per_period
            for t in session.assignment.values()
        )
        # The evaluators agree with a from-scratch recount.
        assert session.period_utility() == period_utility_of(
            session.assignment,
            session.problem.utility,
            session.slots_per_period,
        )


def test_warm_homogeneous_matches_cold_utility():
    # Warm repair may place the same balanced counts in a different
    # slot order than cold, so the order-dependent float *sum* can
    # differ in the last ulp; the per-slot utility multiset must be
    # identical floats.
    def slot_utilities(assignment, utility, slots):
        return sorted(
            utility.value(
                frozenset(v for v, t in assignment.items() if t == slot)
            )
            for slot in range(slots)
        )

    rng = random.Random(99)
    session = Session(make_problem("homogeneous"), consistency="warm")
    for _ in range(30):
        delta = random_delta(rng, session)
        try:
            session.apply(delta)
        except DeltaError:
            continue
        reference = cold_reference(session)
        slots = session.slots_per_period
        assert slot_utilities(
            session.assignment, session.problem.utility, slots
        ) == slot_utilities(reference, session.problem.utility, slots)


def test_warm_coverage_keeps_95_percent_of_cold():
    # Weighted coverage promises no equality warm, only a repaired
    # incumbent: through a stream of single-sensor failures it must
    # keep at least 95% of what a cold re-plan of the survivors scores.
    n = 200
    rng = np.random.default_rng(7)
    covers = {
        v: {int(e) for e in rng.choice(2 * n, size=8, replace=False)}
        for v in range(n)
    }
    weights = {
        e: float(w) for e, w in enumerate(rng.uniform(0.5, 2.0, size=2 * n))
    }
    problem = SchedulingProblem(
        num_sensors=n,
        period=ChargingPeriod.paper_sunny(),
        utility=WeightedCoverageUtility(covers, weights),
    )
    session = Session(problem, consistency="warm")
    victims = np.random.default_rng(13)
    for _ in range(20):
        victim = int(victims.choice(sorted(session.live_sensors())))
        outcome = session.apply(
            delta_from_dict({"kind": "sensor-failed", "sensor": victim})
        )
        assert outcome.resolve == "warm"
        cold = period_utility_of(
            cold_reference(session), problem.utility, session.slots_per_period
        )
        assert outcome.period_utility >= 0.95 * cold, (
            f"warm kept {outcome.period_utility / cold:.4f} of cold"
        )


def test_exact_walk_with_local_search_polish():
    rng = random.Random(7)
    session = Session(
        make_problem("detection"), method="greedy+ls", consistency="exact"
    )
    from repro.core.local_search import local_search

    for _ in range(12):
        delta = random_delta(rng, session)
        try:
            session.apply(delta)
        except DeltaError:
            continue
        live = sorted(session.live_sensors())
        schedule = greedy_repair(
            live, session.slots_per_period, session.problem.utility
        )
        polished = local_search(session.problem, schedule)
        assert session.assignment == dict(polished.assignment)


def test_pure_apply_agrees_with_session_state():
    """The handler's structural probe (pure apply_delta) must predict
    exactly what the session will do with the same delta."""
    session = Session(make_problem("homogeneous"))
    effect = apply_delta(
        session.problem,
        session.failed,
        delta_from_dict({"kind": "rho-change", "rho": 4}),
    )
    assert effect.structural
    outcome = session.apply(delta_from_dict({"kind": "rho-change", "rho": 4}))
    assert outcome.structural and outcome.resolve == "cold"


def _kernel_utilities():
    """One utility per batch-kernel family (a target system qualifies
    only with plain detection targets)."""
    rng = random.Random(20261021)
    covers = [set(range(0, 9)), set(range(5, N)), {1, 7, 12}]
    return {
        "homogeneous-detection": HomogeneousDetectionUtility(range(N), p=0.4),
        "detection": DetectionUtility(
            {v: round(rng.uniform(0.1, 0.7), 3) for v in range(N)}
        ),
        "logsum": LogSumUtility({v: 1.0 + 0.3 * (v % 5) for v in range(N)}),
        "target-system": TargetSystem(
            covers,
            [
                DetectionUtility({v: rng.uniform(0.2, 0.6) for v in cover})
                for cover in covers
            ],
        ),
    }


KERNEL_FAMILIES = sorted(_kernel_utilities())


def _failed_sets(seed):
    """Random failed sets, plus none, all but one and all failed."""
    rng = random.Random(seed)
    sets = [set(), set(range(1, N)), set(range(N - 1)), set(range(N))]
    sets += [set(rng.sample(range(N), rng.randint(1, N - 2))) for _ in range(6)]
    return sets


def _cold_plan_counters():
    registry = get_registry()
    return (
        registry.sample_value(
            "repro_greedy_marginal_evals_total", variant="repair"
        ) or 0,
        sum(
            registry.sample_value(
                "repro_batched_instances_total", family=family
            ) or 0
            for family in KERNEL_FAMILIES
        ),
    )


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_cold_plan_on_the_kernel_equals_greedy_repair(family):
    """A kernel family's cold re-plan runs the width-1 batch kernel over
    the live set and places exactly what greedy_repair places, in the
    same order (the order fixes each slot set's layout downstream)."""
    problem = SchedulingProblem(
        num_sensors=N,
        period=ChargingPeriod.from_ratio(3.0),
        utility=_kernel_utilities()[family],
    )
    assert family_of(problem) == family
    session = Session(problem, consistency="exact")
    for failed in _failed_sets(len(family)):
        live = sorted(set(range(N)) - failed)
        repair_evals, batched = _cold_plan_counters()
        plan = session._plan_cold(problem, live, None)
        assert _cold_plan_counters() == (repair_evals, batched + 1)
        reference = greedy_repair(
            live, problem.slots_per_period, problem.utility
        )
        assert list(plan.items()) == list(reference.assignment.items())


def test_cold_plan_without_a_kernel_stays_serial():
    problem = make_problem("weighted-coverage")
    assert family_of(problem) is None
    session = Session(problem, consistency="exact")
    live = sorted(set(range(N)) - {2, 5})
    repair_evals, batched = _cold_plan_counters()
    plan = session._plan_cold(problem, live, None)
    after = _cold_plan_counters()
    assert after[0] > repair_evals and after[1] == batched
    reference = greedy_repair(live, problem.slots_per_period, problem.utility)
    assert list(plan.items()) == list(reference.assignment.items())
