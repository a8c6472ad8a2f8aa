"""Retry policy, failure taxonomy, deadline math, executor integration."""

from __future__ import annotations

import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.problem import SchedulingProblem
from repro.energy.period import ChargingPeriod
from repro.faults import injector
from repro.faults.injector import InjectedFaultError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.runtime.executor import solve_many
from repro.runtime.retry import (
    DeadlineExceededError,
    RetryPolicy,
    is_retryable,
    remaining_budget,
)
from repro.utility.detection import HomogeneousDetectionUtility


def problem(sensors: int = 4) -> SchedulingProblem:
    return SchedulingProblem(
        num_sensors=sensors,
        period=ChargingPeriod.from_ratio(3.0),
        utility=HomogeneousDetectionUtility(range(sensors), p=0.4),
    )


class TestTaxonomy:
    def test_transient_infrastructure_is_retryable(self):
        assert is_retryable(BrokenProcessPool("worker died"))
        assert is_retryable(InjectedFaultError("injected"))
        assert is_retryable(ConnectionResetError())

    def test_deterministic_errors_are_not(self):
        assert not is_retryable(ValueError("bad instance"))
        assert not is_retryable(KeyError("method"))
        assert not is_retryable(ZeroDivisionError())

    def test_deadline_exhaustion_is_never_retryable(self):
        # DeadlineExceededError subclasses TimeoutError; the taxonomy
        # must still refuse it explicitly.
        assert not is_retryable(DeadlineExceededError("spent"))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-1)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        rng = policy.rng()
        delays = [policy.backoff(k, rng) for k in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_only_shrinks(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        rng = policy.rng()
        for attempt in range(10):
            raw = min(
                policy.max_delay,
                policy.base_delay * policy.multiplier**attempt,
            )
            delay = policy.backoff(attempt, rng)
            assert raw * (1 - policy.jitter) <= delay <= raw

    def test_jitter_stream_is_seeded(self):
        a = RetryPolicy(seed=9)
        b = RetryPolicy(seed=9)
        rng_a, rng_b = a.rng(), b.rng()
        assert [a.backoff(k, rng_a) for k in range(5)] == [
            b.backoff(k, rng_b) for k in range(5)
        ]


class TestRemainingBudget:
    def test_unbounded(self):
        assert remaining_budget(None) is None

    def test_counts_down(self):
        budget = remaining_budget(time.monotonic() + 10.0)
        assert budget is not None and 9.0 < budget <= 10.0

    def test_raises_when_spent(self):
        with pytest.raises(DeadlineExceededError):
            remaining_budget(time.monotonic() - 0.001)


class TestExecutorRetry:
    """solve_many under injected transient faults."""

    def tasks(self, n: int = 3):
        return [(problem(3 + i), "greedy", None) for i in range(n)]

    def test_transient_fault_is_retried_to_success(self):
        # The first solve attempt dies with an injected transient
        # fault; the retry (fault exhausted via times=1) succeeds.
        injector.install(
            FaultPlan(
                specs=(FaultSpec(site="solve", action="error", times=1),)
            )
        )
        try:
            results, _ = solve_many(
                self.tasks(),
                retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            )
        finally:
            injector.uninstall()
        assert len(results) == 3
        assert all(r.total_utility >= 0 for r in results)

    def test_no_policy_means_no_retry(self):
        injector.install(
            FaultPlan(
                specs=(FaultSpec(site="solve", action="error", times=1),)
            )
        )
        try:
            with pytest.raises(InjectedFaultError):
                solve_many(self.tasks(), retry=None)
        finally:
            injector.uninstall()

    def test_exhausted_budget_propagates_the_error(self):
        injector.install(
            FaultPlan(specs=(FaultSpec(site="solve", action="error"),))
        )
        try:
            with pytest.raises(InjectedFaultError):
                solve_many(
                    self.tasks(),
                    retry=RetryPolicy(max_attempts=2, base_delay=0.01),
                )
        finally:
            injector.uninstall()

    def test_deterministic_error_is_not_retried(self):
        # An unknown method raises KeyError deep in the solver --
        # deterministic, so one attempt only.
        with pytest.raises(Exception) as exc_info:
            solve_many(
                [(problem(), "no-such-method", None)],
                retry=RetryPolicy(max_attempts=5, base_delay=0.01),
            )
        assert not is_retryable(exc_info.value)

    def test_deadline_bounds_the_whole_call(self):
        injector.install(
            FaultPlan(specs=(FaultSpec(site="solve", action="error"),))
        )
        try:
            start = time.monotonic()
            with pytest.raises((DeadlineExceededError, InjectedFaultError)):
                solve_many(
                    self.tasks(),
                    retry=RetryPolicy(max_attempts=10, base_delay=0.5),
                    deadline=time.monotonic() + 0.3,
                )
            # 10 attempts at 0.5s backoff would take seconds; the
            # deadline must cut the loop off near its 0.3s budget.
            assert time.monotonic() - start < 1.0
        finally:
            injector.uninstall()

    def test_spent_deadline_raises_immediately(self):
        with pytest.raises(DeadlineExceededError):
            solve_many(self.tasks(1), deadline=time.monotonic() - 0.01)

    def test_results_after_retry_match_clean_run(self):
        clean, _ = solve_many(self.tasks())
        injector.install(
            FaultPlan(
                specs=(FaultSpec(site="solve", action="error", times=2),)
            )
        )
        try:
            retried, _ = solve_many(
                self.tasks(),
                retry=RetryPolicy(max_attempts=5, base_delay=0.01),
            )
        finally:
            injector.uninstall()
        for a, b in zip(clean, retried):
            assert a.total_utility == b.total_utility
            assert a.schedule.active_sets == b.schedule.active_sets
