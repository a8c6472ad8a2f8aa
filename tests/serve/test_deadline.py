"""The per-request deadline: ``ServiceConfig.request_timeout`` over HTTP.

A solve that cannot finish inside the configured wall bound is refused
with the structured ``timeout`` taxonomy (503), not left to occupy the
service; a generous bound answers normally.
"""

from tests.serve.conftest import solve_body, stall_batches


class TestDeadlineOverHTTP:
    def test_tiny_configured_timeout_times_out_structurally(self, make_service):
        """With degradation off, a request the configured timeout cannot
        cover (its batch is stalled) gets the structured timeout reply."""
        _, client = make_service(
            degrade=False, use_cache=False, request_timeout=0.001
        )
        stall_batches(0.5)
        status, body, _ = client.post("/v1/solve", solve_body(sensors=12))
        assert status == 503
        assert body["error"]["code"] == "timeout"

    def test_generous_budget_answers_normally(self, make_service):
        _, client = make_service(request_timeout=25.0)
        status, body, _ = client.post("/v1/solve", solve_body())
        assert status == 200
        assert body["result"]["total_utility"] > 0
