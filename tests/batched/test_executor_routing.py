"""Executor routing: which work rides the batch kernels, and why not.

:func:`repro.runtime.executor.solve_many` groups eligible unique greedy
tasks by ``(family, slots_per_period)`` and sends every group through
:func:`repro.batched.greedy.solve_batch`, a group of one included.  A
family without a batch kernel solves serially by design and counts
nothing; everything else takes the serial/pool path with a reason
recorded on ``repro_batched_fallback_total``.  These tests pin the
routing table: the telemetry ``batched`` flag, the fallback reason
labels, the metric accounting, and the interplay with dedup and the
schedule cache.
"""

from __future__ import annotations

import pytest

from repro.core.problem import SchedulingProblem
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.obs.registry import get_registry
from repro.runtime.cache import ScheduleCache
from repro.runtime.executor import solve_many
from repro.utility.kcoverage import KCoverageUtility

from tests.batched.test_differential_batched import (
    assert_routed_serially,
    fallbacks_counted,
    result_bytes,
)
from tests.conftest import random_batch_problems, random_problem


def greedy_tasks(problems):
    return [(p, "greedy", None) for p in problems]


def fallbacks(reason):
    return get_registry().sample_value(
        "repro_batched_fallback_total", reason=reason
    )


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().reset()
    yield


class TestBatchedRouting:
    def test_group_of_distinct_tasks_is_batched(self):
        problems = random_batch_problems(
            seed=21, family="detection", sizes=(4, 3, 5, 2), rho=2.0
        )
        results, telemetry = solve_many(greedy_tasks(problems))
        assert all(record.batched for record in telemetry)
        registry = get_registry()
        assert registry.sample_value(
            "repro_batched_batches_total", family="detection"
        ) == 1
        assert registry.sample_value(
            "repro_batched_instances_total", family="detection"
        ) == 4
        assert len(results) == 4

    def test_mixed_families_form_separate_batches(self):
        problems = random_batch_problems(
            seed=22, family="detection", sizes=(3, 4), rho=2.0
        ) + random_batch_problems(
            seed=22, family="logsum", sizes=(3, 4), rho=2.0
        )
        _results, telemetry = solve_many(greedy_tasks(problems))
        assert all(record.batched for record in telemetry)
        registry = get_registry()
        assert registry.sample_value(
            "repro_batched_batches_total", family="detection"
        ) == 1
        assert registry.sample_value(
            "repro_batched_batches_total", family="logsum"
        ) == 1

    def test_batched_results_equal_serial_results(self):
        problems = random_batch_problems(
            seed=23, family="target-system", sizes=(5, 3, 4), rho=3.0
        )
        batched_run, telemetry = solve_many(greedy_tasks(problems))
        assert all(record.batched for record in telemetry)
        serial_run = [solve(p, method="greedy") for p in problems]
        assert [result_bytes(r) for r in batched_run] == (
            [result_bytes(r) for r in serial_run]
        )


class TestFamiliesWithoutKernel:
    """Families without a batch kernel solve serially by design: not a
    member is batched, nothing is counted, and the bytes are serial's."""

    def test_weighted_coverage_group(self):
        assert_routed_serially(
            random_batch_problems(
                seed=34, family="weighted-coverage", sizes=(6, 4, 5), rho=2.0
            )
        )

    def test_area_group(self):
        assert_routed_serially(
            random_batch_problems(
                seed=35, family="area", sizes=(5, 6), rho=3.0
            )
        )

    def test_recompute_family_group(self):
        # k-coverage has no specialized evaluator: family "recompute".
        assert_routed_serially(
            [
                SchedulingProblem(
                    num_sensors=n,
                    period=ChargingPeriod.from_ratio(2.0),
                    utility=KCoverageUtility(range(n), k=2),
                )
                for n in (3, 4)
            ]
        )


class TestLoneMember:
    """A task alone in its call rides the width-1 kernel: batched, no
    fallback counted, and serial ``solve``'s bytes.  The sizes span the
    measured kernel/serial crossover (n = 32-128 by family)."""

    @pytest.mark.parametrize("num_sensors", [2, 8, 64, 256])
    @pytest.mark.parametrize(
        "family",
        ["detection", "homogeneous-detection", "logsum", "target-system"],
    )
    def test_lone_member_rides_the_kernel(self, family, num_sensors):
        problem = random_problem(
            seed=24, num_sensors=num_sensors, rho=2.0, family=family
        )
        (result,), (record,) = solve_many(greedy_tasks([problem]))
        assert record.batched
        assert fallbacks_counted() == {}
        assert get_registry().sample_value(
            "repro_batched_batches_total", family=family
        ) == 1
        assert result_bytes(result) == (
            result_bytes(solve(problem, method="greedy"))
        )


class TestFallbackReasons:
    def test_dense_regime_falls_back(self):
        problems = [
            random_problem(seed=25 + i, rho=0.5, family="detection")
            for i in range(2)
        ]
        _results, telemetry = solve_many(greedy_tasks(problems))
        assert not any(record.batched for record in telemetry)
        assert fallbacks("rho") == 2

    def test_non_greedy_method_falls_back(self):
        problems = random_batch_problems(
            seed=26, family="detection", sizes=(4, 5), rho=2.0
        )
        tasks = [(p, "greedy-naive", None) for p in problems]
        _results, telemetry = solve_many(tasks)
        assert not any(record.batched for record in telemetry)
        assert fallbacks("method") == 2

    def test_eligible_and_ineligible_mix_splits_cleanly(self):
        eligible = random_batch_problems(
            seed=29, family="logsum", sizes=(4, 3), rho=2.0
        )
        dense = random_problem(seed=29, rho=0.5, family="logsum")
        _results, telemetry = solve_many(
            greedy_tasks(eligible + [dense])
        )
        assert [record.batched for record in telemetry] == (
            [True, True, False]
        )
        assert fallbacks("rho") == 1


class TestDedupAndCacheInterplay:
    def test_duplicates_collapse_before_batching(self):
        """Duplicate tasks dedup onto one representative, which rides
        the kernel alone (counting no fallback); the duplicates report
        cache hits."""
        problem = random_problem(seed=30, rho=2.0, family="detection")
        _results, telemetry = solve_many(
            greedy_tasks([problem, problem, problem])
        )
        assert [record.batched for record in telemetry] == (
            [True, False, False]
        )
        assert fallbacks_counted() == {}
        assert get_registry().sample_value(
            "repro_batched_instances_total", family="detection"
        ) == 1
        assert [record.cache for record in telemetry] == (
            ["miss", "hit", "hit"]
        )

    def test_duplicates_of_batched_representatives_fan_out(self):
        problems = random_batch_problems(
            seed=31, family="detection", sizes=(4, 3), rho=2.0
        )
        tasks = greedy_tasks(problems + problems)
        results, telemetry = solve_many(tasks)
        assert [record.batched for record in telemetry] == (
            [True, True, False, False]
        )
        assert [record.cache for record in telemetry] == (
            ["miss", "miss", "hit", "hit"]
        )
        assert result_bytes(results[0]) == result_bytes(results[2])
        assert result_bytes(results[1]) == result_bytes(results[3])

    def test_warm_cache_leaves_nothing_to_batch(self, tmp_path):
        cache = ScheduleCache(directory=tmp_path / "cache")
        problems = random_batch_problems(
            seed=32, family="detection", sizes=(4, 3, 5), rho=2.0
        )
        first, _ = solve_many(greedy_tasks(problems), cache=cache)
        get_registry().reset()
        second, telemetry = solve_many(greedy_tasks(problems), cache=cache)
        assert all(record.cache == "hit" for record in telemetry)
        assert not any(record.batched for record in telemetry)
        assert not get_registry().sample_value(
            "repro_batched_batches_total", family="detection"
        )
        assert [result_bytes(r) for r in first] == (
            [result_bytes(r) for r in second]
        )

    def test_coalescing_callback_sees_batched_groups(self):
        problems = random_batch_problems(
            seed=33, family="detection", sizes=(4, 3), rho=2.0
        )
        seen = []
        solve_many(
            greedy_tasks(problems + problems[:1]),
            on_group=lambda key, indices, status: seen.append(
                (indices, status)
            ),
        )
        groups = sorted(seen, key=lambda g: g[0])
        assert groups[0] == ([0, 2], "miss")
        assert groups[1] == ([1], "miss")
