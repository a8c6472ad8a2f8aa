"""Circuit breaker state machine and the service's degraded answers."""

from __future__ import annotations

import pytest

from repro.faults import injector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.serve.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerOpenError,  # noqa: F401 - part of the public surface
    CircuitBreaker,
)

from .conftest import solve_body


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestStateMachine:
    def make(self, **kwargs) -> tuple:
        clock = FakeClock()
        kwargs.setdefault("threshold", 3)
        kwargs.setdefault("recovery_time", 10.0)
        return CircuitBreaker(clock=clock, **kwargs), clock

    def test_starts_closed_and_admits(self):
        breaker, _ = self.make()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never two in a row

    def test_half_open_after_recovery_and_probe_budget(self):
        breaker, clock = self.make(threshold=1, recovery_time=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the one probe
        assert not breaker.allow()  # budget spent

    def test_probe_success_closes(self):
        breaker, clock = self.make(threshold=1, recovery_time=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_the_clock(self):
        breaker, clock = self.make(threshold=1, recovery_time=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(5.0)
        assert not breaker.allow()  # clock restarted at re-open
        clock.advance(5.0)
        assert breaker.allow()

    def test_neutral_releases_a_probe_slot(self):
        breaker, clock = self.make(threshold=1, recovery_time=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_neutral()  # e.g. the probe got a 429
        assert breaker.allow()  # slot is free again

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_time=-1)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_max=0)


class TestServiceDegradation:
    """End-to-end: injected solve failures -> breaker -> degraded 200s."""

    def test_transient_failures_degrade_to_greedy_fallback(
        self, make_service
    ):
        service, client = make_service(
            use_cache=False,
            retry_attempts=1,
            breaker_threshold=2,
            breaker_recovery=60.0,
        )
        injector.install(
            FaultPlan(specs=(FaultSpec(site="solve", action="error"),))
        )
        try:
            for index in range(4):
                status, document, _ = client.post(
                    "/v1/solve", solve_body(sensors=5)
                )
                assert status == 200
                assert document["degraded"] is True
                assert document["degraded_source"] == "greedy-fallback"
        finally:
            injector.uninstall()
        # Two failures tripped the breaker; later requests never
        # touched the (still faulty) solve path.
        assert service.breaker.state == "open"
        status, health, _ = client.get("/healthz")
        assert status == 200
        assert health["breaker"] == "open"

    def test_degraded_result_is_flagged_but_correct_for_greedy(
        self, make_service
    ):
        from repro.core.solver import solve
        from repro.serve import schemas

        service, client = make_service(
            use_cache=False,
            retry_attempts=1,
            breaker_threshold=1,
            breaker_recovery=60.0,
        )
        injector.install(
            FaultPlan(specs=(FaultSpec(site="solve", action="error"),))
        )
        try:
            status, document, _ = client.post(
                "/v1/solve", solve_body(sensors=6)
            )
        finally:
            injector.uninstall()
        assert status == 200 and document["degraded"] is True
        problem = schemas.problem_from_wire(
            solve_body(sensors=6)["problem"]
        )
        direct = schemas.result_to_wire(solve(problem, method="greedy"))
        assert document["result"] == direct

    def test_without_degrade_clients_get_structured_503(self, make_service):
        service, client = make_service(
            use_cache=False,
            retry_attempts=1,
            breaker_threshold=2,
            breaker_recovery=60.0,
            degrade=False,
        )
        injector.install(
            FaultPlan(specs=(FaultSpec(site="solve", action="error"),))
        )
        try:
            codes = []
            for _ in range(4):
                status, document, _ = client.post(
                    "/v1/solve", solve_body(sensors=5)
                )
                assert status == 503
                codes.append(document["error"]["code"])
        finally:
            injector.uninstall()
        assert codes[:2] == ["transient-failure", "transient-failure"]
        assert set(codes[2:]) == {"degraded-unavailable"}

    def test_open_breaker_serves_stale_cache(self, make_service, tmp_path):
        service, client = make_service(
            cache_dir=str(tmp_path / "cache"),
            retry_attempts=1,
            breaker_threshold=1,
            breaker_recovery=60.0,
            degraded_max_sensors=0,  # stale cache is the only fallback
        )
        warm = solve_body(sensors=7)
        status, first, _ = client.post("/v1/solve", warm)
        assert status == 200 and first["degraded"] is False

        injector.install(
            FaultPlan(specs=(FaultSpec(site="solve", action="error"),))
        )
        try:
            # A *cold* instance fails and trips the breaker (no greedy
            # fallback at degraded_max_sensors=0 -> 503).
            status, document, _ = client.post(
                "/v1/solve", solve_body(sensors=9)
            )
            assert status == 503
            assert service.breaker.state == "open"
            # The warm instance is still answerable -- from the cache,
            # honestly flagged as degraded.
            status, stale, _ = client.post("/v1/solve", warm)
        finally:
            injector.uninstall()
        assert status == 200
        assert stale["degraded"] is True
        assert stale["degraded_source"] == "stale-cache"
        assert stale["result"] == first["result"]

    def test_validation_errors_never_trip_the_breaker(self, make_service):
        service, client = make_service(
            use_cache=False, breaker_threshold=1
        )
        for _ in range(3):
            status, _, _ = client.post("/v1/solve", {"problem": "nonsense"})
            assert status == 400
        assert service.breaker.state == "closed"
