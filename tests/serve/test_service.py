"""End-to-end service tests over real HTTP connections.

Covers the acceptance criteria from the service layer's issue: golden
request/response JSON, structured 400s for malformed input, 429 under
induced overload, duplicate in-flight requests coalesced onto one
solver invocation (asserted via the completed-solve counter), and
a ``/metrics`` exposition that passes the repo's Prometheus linter.
"""

import importlib.util
import threading
from pathlib import Path

import pytest

from repro.core.solver import solve
from repro.obs.registry import get_registry
from repro.serve import schemas

from .conftest import solve_body, stall_batches

REPO_ROOT = Path(__file__).resolve().parents[2]

# The exact wire result for the canonical test request
# (8 sensors, rho=3, homogeneous p=0.4, greedy): four slots of two
# sensors each, per-slot utility 1 - 0.6^2 = 0.64 exactly.
GOLDEN_SOLVE_RESULT = {
    "average_slot_utility": 0.64,
    "average_utility_per_target": 0.64,
    "extras": {},
    "method": "greedy",
    "num_periods": 1,
    "num_sensors": 8,
    "periodic": {
        "assignment": {str(s): s % 4 for s in range(8)},
        "kind": "periodic",
        "mode": "active",
        "slots_per_period": 4,
    },
    "rho": 3.0,
    "schedule": {
        "active_sets": [[0, 4], [1, 5], [2, 6], [3, 7]],
        "kind": "unrolled",
        "rho_at_most_one": False,
        "slots_per_period": 4,
    },
    "slots_per_period": 4,
    "total_utility": 2.56,
}


def _load_linter():
    spec = importlib.util.spec_from_file_location(
        "check_prometheus", REPO_ROOT / "tools" / "check_prometheus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGoldenResponses:
    def test_solve_golden(self, service_client):
        _, client = service_client
        status, body, _ = client.post("/v1/solve", solve_body())
        assert status == 200
        assert body["kind"] == "repro-solve-response"
        assert body["version"] == schemas.WIRE_VERSION
        assert body["cache"] == "miss"
        assert body["coalesced"] is False
        assert body["result"] == GOLDEN_SOLVE_RESULT

    def test_solve_cache_hit_is_byte_identical(self, service_client):
        _, client = service_client
        _, cold, cold_raw = client.post("/v1/solve", solve_body())
        _, warm, warm_raw = client.post("/v1/solve", solve_body())
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit"
        assert cold["result"] == warm["result"]
        # The result object is wall-clock free, so only the cache
        # status may differ between the two payloads.
        assert schemas.canonical_json(cold["result"]) == (
            schemas.canonical_json(warm["result"])
        )
        assert cold_raw != warm_raw  # differ exactly in the cache field

    def test_simulate_golden(self, service_client):
        _, client = service_client
        status, body, _ = client.post("/v1/simulate", solve_body())
        assert status == 200
        assert body["kind"] == "repro-simulate-response"
        result = body["result"]
        assert result["num_slots"] == 4
        assert result["scheduled_average_slot_utility"] == pytest.approx(0.64)
        assert result["achieved_average_slot_utility"] == pytest.approx(0.64)
        assert result["refused_activations"] == 0

    def test_healthz(self, service_client):
        _, client = service_client
        status, body, _ = client.get("/healthz")
        assert status == 200
        assert body["kind"] == "repro-health"
        assert body["status"] == "ok"
        assert body["queue_depth"] == 0
        assert body["uptime_seconds"] >= 0


class TestErrorHandling:
    def test_invalid_json_is_structured_400(self, service_client):
        _, client = service_client
        status, body, _ = client.post("/v1/solve", None, raw=b"{not json")
        assert status == 400
        assert body["kind"] == "repro-error"
        assert body["error"]["code"] == "bad-json"
        assert body["error"]["message"]

    @pytest.mark.parametrize(
        "body, code",
        [
            ({}, "invalid-request"),
            ({"problem": {"num_sensors": 8}}, "invalid-problem"),
            (
                {"problem": solve_body()["problem"], "method": "sorcery"},
                "invalid-method",
            ),
            (
                {"problem": solve_body()["problem"], "bogus": 1},
                "unknown-field",
            ),
        ],
    )
    def test_semantic_400s(self, service_client, body, code):
        _, client = service_client
        status, parsed, _ = client.post("/v1/solve", body)
        assert status == 400
        assert parsed["error"]["code"] == code

    def test_unknown_route_404(self, service_client):
        _, client = service_client
        status, body, _ = client.get("/v2/solve")
        assert status == 404
        assert body["error"]["code"] == "not-found"

    def test_wrong_method_405(self, service_client):
        _, client = service_client
        status, body, _ = client.get("/v1/solve")
        assert status == 405
        assert body["error"]["code"] == "method-not-allowed"
        status, body, _ = client.post("/metrics", {})
        assert status == 405

    def test_oversized_body_413(self, make_service):
        _, client = make_service(max_body_bytes=64)
        status, body, _ = client.post("/v1/solve", solve_body())
        assert status == 413
        assert body["error"]["code"] == "body-too-large"

    def test_draining_503(self, service_client):
        service, client = service_client
        service.draining = True
        status, body, _ = client.get("/healthz")
        assert status == 503
        assert body["status"] == "draining"
        status, body, _ = client.post("/v1/solve", solve_body())
        assert status == 503
        assert body["error"]["code"] == "shutting-down"


class TestOverload:
    def test_queue_full_returns_429(self, make_service):
        # A queue of 2 and a stalled first batch: of 8 concurrent
        # distinct instances, at most 2 can be in flight at once.
        _, client = make_service(max_queue=2, use_cache=False)
        stall_batches(0.5)
        clients = 8
        barrier = threading.Barrier(clients)
        outcomes = []

        def one(sensors):
            barrier.wait()
            status, body, _ = client.post(
                "/v1/solve", solve_body(sensors=sensors), timeout=30
            )
            outcomes.append((status, body))

        threads = [
            threading.Thread(target=one, args=(4 + i,))
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        statuses = [status for status, _ in outcomes]
        assert len(statuses) == clients
        assert set(statuses) <= {200, 429}
        assert statuses.count(200) >= 1  # admitted work still completes
        assert statuses.count(429) >= 1  # and the rest is shed
        for status, body in outcomes:
            if status == 429:
                assert body["error"]["code"] == "overloaded"


class TestCoalescing:
    def test_concurrent_duplicate_clients_cost_one_solve(self, make_service):
        """>= 8 concurrent clients posting the same instance must be
        answered by a single solver invocation: one completed greedy
        solve, whichever path (serial or batch kernel) ran it.

        The first batch is stalled, so the first request solves alone
        and the rest queue behind it: they coalesce onto one cache
        lookup in the next batch, or hit the cache at admission."""
        registry = get_registry()
        body = solve_body(sensors=10)

        registry.reset()
        service, client = make_service()
        stall_batches(0.25)
        clients = 8
        barrier = threading.Barrier(clients)
        responses = []

        def one():
            barrier.wait()
            responses.append(client.post("/v1/solve", body, timeout=30))

        threads = [threading.Thread(target=one) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        assert [status for status, _, _ in responses] == [200] * clients
        payloads = {raw for _, _, raw in responses}
        # All clients see the same deterministic result object.
        results = {
            schemas.canonical_json(parsed["result"])
            for _, parsed, _ in responses
        }
        assert len(results) == 1
        # The solver ran exactly once across all eight requests: every
        # request either rode the batch representative (coalesced), hit
        # the cache the representative populated, or *was* the
        # representative.
        assert registry.sample_value(
            "repro_solve_total", method="greedy"
        ) == 1
        # The request counter increments after the response bytes are
        # flushed, so give the handler threads a beat to finish.
        served = registry.sample_value(
            "repro_server_requests_total", endpoint="solve", status="200"
        )
        deadline = 100
        while served != clients and deadline:
            threading.Event().wait(0.02)
            deadline -= 1
            served = registry.sample_value(
                "repro_server_requests_total", endpoint="solve", status="200"
            )
        assert served == clients
        free_riders = sum(
            1
            for _, parsed, _ in responses
            if parsed["coalesced"] or parsed["cache"] == "hit"
        )
        assert free_riders == clients - 1
        # Full payloads differ only in the cache/coalesced metadata:
        # (miss, false) for the representative, (hit, true) for batch
        # riders, (hit, false) for the next batch's cache-hit
        # representative and for stragglers on the admission fast
        # path.  The result object itself is identical (asserted above).
        assert len(payloads) <= 3


class TestHefMethod:
    def test_hef_solves_over_http(self, service_client):
        _, client = service_client
        status, body, _ = client.post("/v1/solve", solve_body(method="hef"))
        assert status == 200
        assert body["result"]["method"] == "hef"
        # The wire result matches the in-process solver exactly.
        from repro.core.problem import SchedulingProblem
        from repro.energy.period import ChargingPeriod
        from repro.utility.detection import HomogeneousDetectionUtility

        problem = SchedulingProblem(
            num_sensors=8,
            period=ChargingPeriod.from_ratio(3.0),
            utility=HomogeneousDetectionUtility(range(8), p=0.4),
            num_periods=1,
        )
        local = solve(problem, method="hef")
        assert body["result"]["total_utility"] == local.total_utility
        assert body["result"]["periodic"]["assignment"] == {
            str(s): slot for s, slot in local.periodic.assignment.items()
        }

    def test_hef_dense_regime_is_a_structured_500(self, service_client):
        _, client = service_client
        status, body, _ = client.post(
            "/v1/solve", solve_body(method="hef", rho=0.5)
        )
        assert status == 500
        assert body["error"]["code"] == "internal"
        assert "sparse" in body["error"]["message"]


class TestMetricsEndpoint:
    def test_exposition_passes_linter(self, service_client):
        _, client = service_client
        # Generate traffic across endpoints so labeled children exist.
        client.post("/v1/solve", solve_body())
        client.post("/v1/solve", solve_body(method="round-robin"))
        client.post("/v1/simulate", solve_body())
        client.get("/healthz")
        status, _, raw = client.get("/metrics")
        assert status == 200
        text = raw.decode("utf-8")
        linter = _load_linter()
        assert linter.lint(text.rstrip("\n")) == []
        assert "repro_server_requests_total" in text
        assert "repro_server_batch_size_bucket" in text
