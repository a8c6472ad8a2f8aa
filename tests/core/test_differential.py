"""Differential tests: independent implementations must agree exactly.

The lazy greedy (priority queue over stale upper bounds) is an
optimization of the naive greedy (rescan every candidate each step);
submodularity makes the two *identical*, not merely close.  Any
divergence -- on any size, charge ratio, or utility family -- is a bug
in one of them, so the matrix below compares schedules bit-for-bit,
not by utility tolerance.  The one exception is rounding that breaks
submodularity itself; ``test_lazy_trace_equals_naive_bit_for_bit``
accepts a divergence only with a witness of that.

The same discipline applies to the incremental evaluators of
:mod:`repro.utility.incremental`: the stateful kernels must be
**bit-for-bit** interchangeable with the from-scratch path (the
accumulation contract in that module's docstring), both per-query
(random add/remove/snapshot-restore walks below) and end-to-end
(whole solves with the specialized evaluators against the same solves
under the ``from_scratch`` fixture, which serves every utility through
the base evaluator).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.baselines import high_energy_first_schedule
from repro.core.greedy import GreedyTrace, greedy_schedule
from repro.core.greedy_passive import greedy_passive_schedule
from repro.core.problem import SchedulingProblem
from repro.core.repair import greedy_repair
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.io.serialization import schedule_to_dict
from repro.obs.registry import get_registry
from repro.runtime.executor import solve_many
from repro.runtime.fingerprint import canonical_json
from repro.sim.cityscale import city_scenario
from repro.utility.area import AreaCoverageUtility, Subregion
from repro.utility.incremental import IncrementalEvaluator, make_evaluator

from tests.conftest import (
    GREEDY_VARIANTS,
    UTILITY_FAMILIES,
    marginal_evals_delta,
    random_problem,
    random_utility,
    rounding_broke_submodularity,
)

SIZES = (4, 6, 8)
RHOS = (1.0 / 3.0, 1.0, 2.0, 3.0)


def schedule_bytes(result):
    """The full deterministic footprint of a solve, as canonical JSON."""
    document = {
        "schedule": schedule_to_dict(result.schedule),
        "total_utility": result.total_utility,
        "average_slot_utility": result.average_slot_utility,
    }
    if result.periodic is not None:
        document["periodic"] = schedule_to_dict(result.periodic)
    return canonical_json(document)


@pytest.mark.parametrize("family", UTILITY_FAMILIES)
@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("size", SIZES)
def test_lazy_equals_naive_greedy(size, rho, family):
    # Stable across processes (unlike hash(), which is salted).
    seed = (
        size * 1009
        + int(rho * 6) * 53
        + UTILITY_FAMILIES.index(family)
    )
    problem = random_problem(
        seed=seed, num_sensors=size, rho=rho, family=family
    )
    lazy = solve(problem, method="greedy")
    naive = solve(problem, method="greedy-naive")
    assert schedule_bytes(lazy) == schedule_bytes(naive), (
        f"lazy and naive greedy diverge on size={size} rho={rho} "
        f"family={family}"
    )


@pytest.mark.parametrize("seed", range(8))
def test_lazy_equals_naive_on_fully_random_instances(seed):
    problem = random_problem(seed=4000 + seed)
    lazy = solve(problem, method="greedy")
    naive = solve(problem, method="greedy-naive")
    assert schedule_bytes(lazy) == schedule_bytes(naive)


def _trace_bits(trace):
    """Each step's pair and the ``repr`` of its gain and total: repr
    round-trips every float and tells ``0`` from ``0.0`` and ``-0.0``."""
    return [
        (s.sensor, s.slot, repr(s.gain), repr(s.total_after)) for s in trace.steps
    ]


def _traced(run, problem, lazy):
    trace = GreedyTrace()
    _, evals = marginal_evals_delta(lambda: run(problem, lazy=lazy, trace=trace))
    return trace, evals


@settings(max_examples=80, deadline=None)
@example(family="target-system", size=4, rho=1.0 / 3.0, seed=0)
@given(
    family=st.sampled_from(UTILITY_FAMILIES),
    size=st.integers(1, 7),
    rho=st.sampled_from(RHOS),
    seed=st.integers(0, 2**32 - 1),
)
def test_lazy_trace_equals_naive_bit_for_bit(family, size, rho, seed):
    """Step by step, the lazy driver makes the naive scan's choices with
    the same gain and total bits, in both directions: adding (Algorithm
    1, rho >= 1) and removing (the passive scheme, rho <= 1; rho = 1
    runs both).  Homogeneous detection makes every slot and sensor tie,
    so the tie-break order is exercised on every step.

    The one allowed divergence is the one the lazy argument cannot
    rule out: at the first differing step, the naive pick scored
    strictly better at an earlier state of its slot than it does now,
    i.e. rounding broke submodularity.  The target-system loss, a
    difference of two sums over every target, does this (seed 0, four
    sensors, rho = 1/3).

    Each run counts under its own evaluation label only: the naive scan
    measures every remaining pair on every step, the lazy one every
    pair at least once and never more than the scan."""
    problem = random_problem(seed=seed, num_sensors=size, rho=rho, family=family)
    T = problem.slots_per_period
    scan = T * size * (size + 1) // 2
    runs = []
    if problem.is_sparse_regime:
        runs.append((greedy_schedule, False, "lazy", "naive"))
    if problem.rho <= 1:
        runs.append((greedy_passive_schedule, True, "passive-lazy", "passive-naive"))
    for run, remove, lazy_label, naive_label in runs:
        lazy, lazy_evals = _traced(run, problem, lazy=True)
        naive, naive_evals = _traced(run, problem, lazy=False)
        assert len(naive.steps) == size
        assert naive_evals == {**dict.fromkeys(GREEDY_VARIANTS, 0), naive_label: scan}
        assert size * T <= lazy_evals[lazy_label] <= scan
        assert {v: n for v, n in lazy_evals.items() if n} == {
            lazy_label: lazy_evals[lazy_label]
        }
        lazy_bits, naive_bits = _trace_bits(lazy), _trace_bits(naive)
        if lazy_bits == naive_bits:
            continue
        k = next(i for i, (a, b) in enumerate(zip(lazy_bits, naive_bits)) if a != b)
        pick = naive.steps[k]
        start = frozenset(problem.sensors) if remove else frozenset()
        assert rounding_broke_submodularity(
            problem.utility,
            remove,
            start,
            naive.placements()[:k],
            (pick.sensor, pick.slot),
            -pick.gain,
        ), f"lazy and naive diverge at step {k} with no rounding witness"


# ---------------------------------------------------------------------------
# Incremental evaluators vs from-scratch recomputation
# ---------------------------------------------------------------------------

WALK_SENSORS = 10
WALK_STEPS = 120


def _random_area_utility(num_sensors, rng):
    """Area coverage over ~3n cells of 1-3 covering sensors each."""
    subregions = []
    for _ in range(3 * num_sensors):
        size = int(rng.integers(1, 4))
        covered = frozenset(
            int(v) for v in rng.choice(num_sensors, size=size, replace=False)
        )
        subregions.append(
            Subregion(
                covered_by=covered,
                area=float(rng.uniform(0.5, 2.0)),
                weight=float(rng.uniform(0.5, 1.5)),
            )
        )
    return AreaCoverageUtility(subregions)


#: The five ISSUE families plus area coverage (not in the solver-facing
#: conftest matrix because AreaCoverageUtility has no problem builder).
EVALUATOR_FAMILIES = UTILITY_FAMILIES + ("area",)


def _utility_for(family, num_sensors, rng):
    if family == "area":
        return _random_area_utility(num_sensors, rng)
    return random_utility(family, num_sensors, rng)


def _probe(fast, slow, fn, num_sensors):
    """Every query answered three ways must agree to the last bit."""
    active = fast.active
    assert slow.active == active
    reference = fn.value(active)
    assert fast.value() == reference
    assert slow.value() == reference
    for v in range(num_sensors):
        marginal = fn.marginal(v, active)
        assert fast.gain(v) == marginal
        assert slow.gain(v) == marginal
        decrement = fn.decrement(v, active)
        assert fast.loss(v) == decrement
        assert slow.loss(v) == decrement


@pytest.mark.parametrize("family", EVALUATOR_FAMILIES)
@pytest.mark.parametrize("seed", (0, 1))
def test_incremental_equals_recompute_on_random_walks(family, seed):
    """Random add/remove/snapshot/restore walk, probed at every step.

    The stateful evaluator ("fast") and the from-scratch base evaluator
    ("slow") start from the same utility and must agree bit-for-bit
    with each other and with the utility's own marginal/decrement/value
    at every point of the walk.
    """
    walk_seed = 5000 + 97 * EVALUATOR_FAMILIES.index(family) + seed
    rng = np.random.default_rng(walk_seed)
    fn = _utility_for(family, WALK_SENSORS, rng)
    fast = make_evaluator(fn)
    slow = IncrementalEvaluator(fn)
    assert type(fast) is not type(slow), (
        f"{family}: no specialized evaluator dispatched"
    )
    snapshots = []
    _probe(fast, slow, fn, WALK_SENSORS)
    for _ in range(WALK_STEPS):
        op = rng.choice(("add", "add", "remove", "snapshot", "restore"))
        if op == "add":
            candidate = int(rng.integers(WALK_SENSORS))
            fast.add(candidate)
            slow.add(candidate)
        elif op == "remove" and fast.active:
            member = sorted(fast.active)[
                int(rng.integers(len(fast.active)))
            ]
            fast.remove(member)
            slow.remove(member)
        elif op == "snapshot":
            snapshots.append((fast.snapshot(), slow.snapshot()))
        elif op == "restore" and snapshots:
            fast_token, slow_token = snapshots[
                int(rng.integers(len(snapshots)))
            ]
            fast.restore(fast_token)
            slow.restore(slow_token)
        _probe(fast, slow, fn, WALK_SENSORS)


SOLVE_METHODS = ("greedy", "greedy-naive", "greedy+ls")


@pytest.mark.parametrize("family", UTILITY_FAMILIES)
def test_solves_identical_with_incremental_on_and_off(family, from_scratch):
    """End-to-end: whole solves are bit-identical with the specialized
    evaluators and with the from-scratch base evaluator."""
    seed = 6000 + UTILITY_FAMILIES.index(family)
    problem = random_problem(seed=seed, num_sensors=8, family=family)

    def footprints():
        return [
            schedule_bytes(solve(problem, method=method))
            for method in SOLVE_METHODS
        ]

    incremental = footprints()
    from_scratch()
    assert footprints() == incremental, (
        f"family={family}: from-scratch evaluation changed a solve"
    )


# ---------------------------------------------------------------------------
# Pinned plans at fleet shape
# ---------------------------------------------------------------------------

#: A 2,000-sensor city with fleet-day's skew: the lazy greedy places
#: 1,714 sensors in slot 0, the passive greedy 1,897 passive slots in
#: slot 0, so the evaluators run long add/remove chains on one slot.
#: Every value below was captured on the eager-chain evaluators, before
#: the active set was deferred; the plan, its trace and its work must
#: not move, with the specialized evaluators (flag ``1``) or under the
#: ``from_scratch`` fixture (flag ``0``).
FLEET_PINS = {
    "active": {
        "variant": "lazy",
        "digest": "2398c7d927363ff635b37889ba7d1da1347cd358ffe018238e8694c9d89cf7e9",
        "total": 914.0865704891014,
        "slot_sizes": {0: 1714, 1: 88, 2: 96, 3: 102},
        "evals": 15377,
        "ops": {"add": 2000, "gain": 15377},
    },
    "passive": {
        "variant": "passive-lazy",
        "digest": "d06ae93580769c499810b734133b3faaac14bb54d188617f9e194921df390953",
        "total": 914.0865704891,
        "slot_sizes": {0: 1897, 1: 103},
        "evals": 10101,
        "ops": {"remove": 2000, "loss": 10101, "value": 4, "reset": 4},
    },
}


@pytest.fixture(scope="module")
def fleet_city():
    return city_scenario(2_000, districts=8, seed=1)


def _fleet_problem(city, regime):
    if regime != "passive":
        return city.problem()
    return SchedulingProblem(
        num_sensors=city.num_sensors,
        period=ChargingPeriod.from_ratio(1.0 / 3.0, discharge_time=45.0),
        utility=city.utility,
    )


def _plan_digest(assignment, trace):
    """sha256 over the assignment and every step's exact gain/total."""
    digest = hashlib.sha256(json.dumps(sorted(assignment.items())).encode())
    for step in trace.steps:
        digest.update(
            f"{step.sensor},{step.slot},{step.gain!r},{step.total_after!r};"
            .encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("flag", ("1", "0"))
@pytest.mark.parametrize("regime", ("active", "passive", "repair"))
def test_fleet_shape_plan_is_pinned(fleet_city, regime, flag, from_scratch):
    """``repair`` is the session cold path: ``greedy_repair`` over every
    sensor must hit the ``active`` pin (it is Algorithm 1, bit for bit)
    and count its evaluations under its own label."""
    if flag == "0":
        from_scratch()
    pin = FLEET_PINS["passive" if regime == "passive" else "active"]
    problem = _fleet_problem(fleet_city, regime)
    registry = get_registry()
    registry.reset()
    trace = GreedyTrace()
    if regime == "repair":
        schedule = greedy_repair(
            problem.sensors, problem.slots_per_period, problem.utility, trace=trace
        )
        variant = "repair"
    else:
        run = greedy_schedule if regime == "active" else greedy_passive_schedule
        schedule = run(problem, trace=trace)
        variant = pin["variant"]

    assert _plan_digest(schedule.assignment, trace) == pin["digest"]
    assert trace.total_utility == pin["total"]
    assert Counter(schedule.assignment.values()) == pin["slot_sizes"]
    assert registry.sample_value(
        "repro_greedy_marginal_evals_total", variant=variant
    ) == pin["evals"]
    family = "coverage" if flag == "1" else "recompute"
    for op, count in pin["ops"].items():
        assert registry.sample_value(
            "repro_utility_incremental_ops_total", family=family, op=op
        ) == count, op


# ---------------------------------------------------------------------------
# Greedy vs the High-Energy-First baseline (Manju & Pujari)
# ---------------------------------------------------------------------------

#: Seed base verified to give greedy >= HEF on the full matrix below.
#: The dominance is empirical, not a theorem -- HEF's fixed visiting
#: order occasionally beats the global greedy on adversarial coverage
#: instances -- so the matrix is pinned rather than drawn fresh.
HEF_SEED_BASE = 7000
HEF_SPARSE_RHOS = (1.0, 2.0, 3.0)


@pytest.mark.parametrize("family", UTILITY_FAMILIES)
@pytest.mark.parametrize("rho", HEF_SPARSE_RHOS)
def test_greedy_dominates_high_energy_first(family, rho):
    """The global greedy matches or beats the per-sensor HEF ordering.

    The greedy side runs through :func:`repro.runtime.executor.solve_many`,
    so for the families with a batch kernel this doubles as a
    cross-implementation check: the batched kernels against an
    independently-coded baseline, compared on recomputed utilities
    rather than schedule bytes.  Weighted coverage has no kernel and
    solves serially.
    """
    problems = [
        random_problem(
            seed=HEF_SEED_BASE + i, num_sensors=7, rho=rho, family=family
        )
        for i in range(5)
    ]
    greedy_results, _telemetry = solve_many(
        [(p, "greedy", None) for p in problems]
    )
    for problem, result in zip(problems, greedy_results):
        hef = high_energy_first_schedule(problem)
        hef_total = hef.total_utility(problem.utility)
        greedy_total = result.periodic.total_utility(problem.utility)
        assert greedy_total >= hef_total, (
            f"HEF beat the greedy on family={family} rho={rho}: "
            f"{hef_total} > {greedy_total}"
        )


def test_high_energy_first_requires_sparse_regime():
    problem = random_problem(seed=HEF_SEED_BASE, rho=0.5, family="detection")
    with pytest.raises(ValueError, match="sparse regime"):
        high_energy_first_schedule(problem)


def test_high_energy_first_is_feasible_and_complete():
    problem = random_problem(
        seed=HEF_SEED_BASE, num_sensors=9, rho=3.0, family="logsum"
    )
    schedule = high_energy_first_schedule(problem)
    assert set(schedule.assignment) == set(problem.sensors)
    schedule.unroll(problem.num_periods).validate_feasible()
