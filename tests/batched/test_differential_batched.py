"""Differential harness: batched greedy must equal serial, bit for bit.

:func:`repro.batched.greedy.solve_batch` claims bit-for-bit equality
with a serial ``[solve(p, method="greedy") for p in problems]`` loop --
not approximate equality, not same-utility: identical selections,
identical schedules, identical recomputed totals.  The matrix below
compares canonical result payloads (minus the wall-time field) as
bytes, across every kernel family, the pinned batch sizes, the sparse
charge ratios and a seed axis, plus the degenerate shapes (empty
instances, ragged padding, singleton batches) where mask handling has
to carry the whole argument.

Weighted coverage and area have no batch kernel.  Their cases of the
same matrix are routing assertions instead: through ``solve_many`` no
member is batched, no fallback is counted, and every result equals the
serial loop's bytes.

``tests/batched/test_mutation.py`` proves this harness has teeth: with
the driver's masking or a kernel's gain column corrupted, these exact
comparisons fail.
"""

from __future__ import annotations

import json

import pytest

from repro.batched.greedy import solve_batch
from repro.core.solver import solve
from repro.obs.registry import get_registry
from repro.runtime.cache import result_to_payload
from repro.runtime.executor import solve_many

from tests.conftest import (
    BATCH_FAMILIES,
    KERNEL_FAMILIES,
    SERIAL_FAMILIES,
    random_batch_problems,
    random_problem,
)

#: The pinned batch widths: singleton, minimal pair, odd mid-size, and
#: one wide enough to exercise real padding spread.
BATCH_SIZES = (1, 2, 7, 32)

#: Sparse-regime ratios (batching requires rho >= 1).
SPARSE_RHOS = (1.0, 2.0, 3.0)

SEEDS = range(5)


def result_bytes(result) -> str:
    """Canonical footprint of a solve: the cache payload minus timing."""
    payload = result_to_payload(result)
    payload.pop("solve_seconds", None)
    return json.dumps(payload, sort_keys=True)


def fallbacks_counted():
    """Every ``repro_batched_fallback_total`` sample, keyed by reason."""
    for family in get_registry().collect():
        if family["name"] == "repro_batched_fallback_total":
            return {
                sample["labels"]["reason"]: sample["value"]
                for sample in family["samples"]
                if sample["value"]
            }
    return {}


def assert_routed_serially(problems) -> None:
    """A family without a kernel: ``solve_many`` batches no member of a
    same-``T`` group, counts no fallback and returns the serial loop's
    bytes."""
    assert len({p.slots_per_period for p in problems}) == 1
    get_registry().reset()
    results, telemetry = solve_many([(p, "greedy", None) for p in problems])
    assert not any(record.batched for record in telemetry)
    assert fallbacks_counted() == {}
    serial = [solve(p, method="greedy") for p in problems]
    assert [result_bytes(r) for r in results] == (
        [result_bytes(s) for s in serial]
    )


def assert_batched_equals_serial(problems, family) -> None:
    if family in SERIAL_FAMILIES:
        assert_routed_serially(problems)
        return
    batched = solve_batch(list(problems))
    serial = [solve(p, method="greedy") for p in problems]
    for position, (b, s) in enumerate(zip(batched, serial)):
        assert result_bytes(b) == result_bytes(s), (
            f"batched and serial greedy diverge on member {position} "
            f"of a {len(problems)}-instance batch"
        )


def ragged_sizes(seed: int, batch_size: int, family: str) -> list:
    """Deterministic per-test member sizes in 1..6 (never 0: the
    target-system generator cannot build empty instances; the n == 0
    edge is covered by the dedicated degenerate tests below)."""
    base = BATCH_FAMILIES.index(family)
    return [
        1 + (seed * 31 + base * 7 + k * 13) % 6 for k in range(batch_size)
    ]


@pytest.mark.parametrize("family", BATCH_FAMILIES)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_batched_equals_serial(family, batch_size, seed):
    rho = SPARSE_RHOS[seed % len(SPARSE_RHOS)]
    problems = random_batch_problems(
        seed=seed,
        family=family,
        sizes=ragged_sizes(seed, batch_size, family),
        rho=rho,
    )
    assert_batched_equals_serial(problems, family)


@pytest.mark.parametrize("family", BATCH_FAMILIES)
@pytest.mark.parametrize("rho", SPARSE_RHOS)
def test_batched_equals_serial_across_rhos(family, rho):
    problems = random_batch_problems(
        seed=900 + SPARSE_RHOS.index(rho), family=family,
        sizes=(3, 5, 2, 6), rho=rho,
    )
    assert_batched_equals_serial(problems, family)


# ---------------------------------------------------------------------------
# Degenerate shapes: the mask handling has to carry these alone.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family", [f for f in BATCH_FAMILIES if f != "target-system"]
)
def test_empty_instances_ride_along(family):
    """n == 0 members finish before round one and must round-trip."""
    problems = random_batch_problems(
        seed=77, family=family, sizes=(0, 4, 0, 2), rho=2.0
    )
    assert_batched_equals_serial(problems, family)


@pytest.mark.parametrize(
    "family", [f for f in BATCH_FAMILIES if f != "target-system"]
)
def test_batch_of_all_empty_instances(family):
    problems = random_batch_problems(
        seed=78, family=family, sizes=(0, 0, 0), rho=1.0
    )
    assert_batched_equals_serial(problems, family)


def test_singleton_batch_each_family():
    for family in BATCH_FAMILIES:
        problems = random_batch_problems(
            seed=79, family=family, sizes=(5,), rho=3.0
        )
        assert_batched_equals_serial(problems, family)


def test_maximally_ragged_batch():
    """Sizes 1..8 in one batch: every padding width is exercised."""
    problems = random_batch_problems(
        seed=80, family="detection", sizes=tuple(range(1, 9)), rho=2.0
    )
    assert_batched_equals_serial(problems, "detection")


# ---------------------------------------------------------------------------
# Executor parity: batched routing must change the route, not the result.
# ---------------------------------------------------------------------------


def test_executor_results_identical_under_both_toggles():
    """``solve_many`` (batched where eligible) against a serial loop."""
    problems = [
        random_problem(seed=8100 + i, rho=2.0, family="detection")
        for i in range(4)
    ] + [
        random_problem(seed=8200 + i, rho=1.0, family="logsum")
        for i in range(3)
    ] + [
        # Dense-regime member: always serial, must be unaffected.
        random_problem(seed=8300, rho=0.5, family="weighted-coverage"),
    ]
    results, telemetry = solve_many([(p, "greedy", None) for p in problems])
    assert [record.batched for record in telemetry] == [True] * 7 + [False]
    serial = [solve(p, method="greedy") for p in problems]
    assert [result_bytes(r) for r in results] == (
        [result_bytes(r) for r in serial]
    ), "batched routing changed the solve results, not just the routing"


# ---------------------------------------------------------------------------
# The evaluator-backed kernels against from-scratch serial solves.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_kernels_ignore_the_incremental_toggle(family, from_scratch):
    """The kernels read the specialized evaluators' ``slot_factor()``
    and ``weight_gain(w)``; the serial reference here runs the
    from-scratch base evaluator, which has neither.  The batch must
    still match it bit for bit."""
    problems = random_batch_problems(
        seed=81, family=family, sizes=(4, 2, 5), rho=2.0
    )
    batched = solve_batch(list(problems))
    from_scratch()
    serial = [solve(p, method="greedy") for p in problems]
    assert [result_bytes(b) for b in batched] == (
        [result_bytes(s) for s in serial]
    )
