"""Router logic in isolation: placement, session table, health, errors.

A stub supervisor stands in for the fleet so these tests run without a
single subprocess -- the wire-level behavior is covered end to end in
``test_cluster_http.py``.
"""

import http.client
import json
import threading
import time

import pytest

from repro.cluster.router import (
    CLUSTER_HEALTH_KIND,
    ForwardError,
    Router,
    RouterHTTPServer,
    RouterRequestHandler,
)


class StubSupervisor:
    """Just enough supervisor for a Router: shards + addresses."""

    def __init__(self, shards, addresses=None):
        self._shards = list(shards)
        self.addresses = dict(addresses or {})

    def shards(self):
        return list(self._shards)

    def address(self, shard):
        return self.addresses.get(shard)

    def describe(self):
        return [
            {
                "shard": shard,
                "state": "up" if shard in self.addresses else "restarting",
                "restarts": 0,
                "pid": None,
            }
            for shard in self._shards
        ]


def make_router(shards=("worker-0", "worker-1"), addresses=None, **kwargs):
    return Router(StubSupervisor(shards, addresses), **kwargs)


SOLVE_BODY = {
    "problem": {"num_sensors": 8, "rho": 3.0, "utility": {"p": 0.4}},
    "method": "greedy",
    "seed": 0,
}


class TestPlacement:
    def test_identical_bodies_land_on_one_shard(self):
        router = make_router()
        raw = json.dumps(SOLVE_BODY).encode()
        shards = {router.shard_for_body("/v1/solve", raw) for _ in range(5)}
        assert len(shards) == 1

    def test_routing_is_by_content_not_bytes(self):
        """Semantically identical bodies with different key order and
        whitespace route together -- placement keys on the solve
        fingerprint, not the raw bytes."""
        router = make_router()
        compact = json.dumps(SOLVE_BODY, sort_keys=True).encode()
        shuffled = json.dumps(
            {
                "seed": 0,
                "method": "greedy",
                "problem": {"utility": {"p": 0.4}, "rho": 3.0, "num_sensors": 8},
            },
            indent=2,
        ).encode()
        assert router.shard_for_body(
            "/v1/solve", compact
        ) == router.shard_for_body("/v1/solve", shuffled)

    def test_unparseable_body_routes_deterministically(self):
        """Garbage still routes (by raw-byte hash): the worker owns the
        structured 400, the router only owes determinism."""
        router = make_router()
        raw = b"this is not json"
        assert router.shard_for_body("/v1/solve", raw) == router.shard_for_body(
            "/v1/solve", raw
        )
        assert router.shard_for_body("/v1/solve", raw) in router.ring.shards

    def test_session_create_routes_like_its_cold_solve(self):
        """Session-create bodies carry extra fields the solve parser
        rejects; the router strips to (problem, method, seed) so the
        session lands where its initial solve would have."""
        router = make_router()
        solve_raw = json.dumps(SOLVE_BODY).encode()
        create_raw = json.dumps({**SOLVE_BODY, "resolve": "warm"}).encode()
        assert router.shard_for_body(
            "/v1/session", create_raw
        ) == router.shard_for_body("/v1/solve", solve_raw)

    def test_distinct_instances_spread_over_the_fleet(self):
        router = make_router([f"worker-{i}" for i in range(4)])
        owners = set()
        for sensors in range(2, 40):
            body = json.dumps(
                {"problem": {"num_sensors": sensors, "utility": {"p": 0.4}}}
            ).encode()
            owners.add(router.shard_for_body("/v1/solve", body))
        assert len(owners) == 4


class TestSessionTable:
    def test_learn_lookup_forget(self):
        router = make_router()
        assert router.session_shard("s1") is None
        router.learn_session("s1", "worker-1")
        assert router.session_shard("s1") == "worker-1"
        assert router.session_count() == 1
        router.forget_session("s1")
        assert router.session_shard("s1") is None
        assert router.session_count() == 0

    def test_forget_unknown_is_a_noop(self):
        make_router().forget_session("never-seen")


class TestForward:
    def test_down_worker_raises_refused(self):
        """No live address means the request was never delivered --
        the retryable kind, even for session mutations."""
        router = make_router(addresses={})
        with pytest.raises(ForwardError) as excinfo:
            router.forward(
                "worker-0", "POST", "/v1/solve", b"{}",
                deadline=time.monotonic() + 5.0,
            )
        assert excinfo.value.kind == "refused"

    def test_exhausted_deadline_raises_timeout(self):
        router = make_router(addresses={"worker-0": ("127.0.0.1", 1)})
        with pytest.raises(ForwardError) as excinfo:
            router.forward(
                "worker-0", "POST", "/v1/solve", b"{}",
                deadline=time.monotonic() - 0.01,
            )
        assert excinfo.value.kind == "timeout"

    def test_unknown_shard_rejected_by_supervisor_contract(self):
        router = make_router()
        assert router.supervisor.address("worker-7") is None


class TestClusterHealth:
    def test_all_workers_down_reports_down_503(self):
        router = make_router(addresses={})
        status, body = router.cluster_health()
        assert status == 503
        assert body["kind"] == CLUSTER_HEALTH_KIND
        assert body["status"] == "down"
        assert [w["shard"] for w in body["workers"]] == [
            "worker-0",
            "worker-1",
        ]

    def test_draining_reports_503_regardless_of_workers(self):
        router = make_router(addresses={})
        router.draining = True
        status, body = router.cluster_health()
        assert status == 503
        assert body["status"] == "draining"

    def test_router_section_carries_session_count(self):
        router = make_router()
        router.learn_session("s1", "worker-0")
        _, body = router.cluster_health()
        assert body["router"]["sessions_routed"] == 1
        assert body["router"]["uptime_seconds"] >= 0


class _CountingWriter:
    """Wraps a handler's ``wfile``, recording every ``write``."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestKeepAlive:
    """Every router reply leaves in one write: a reply split into
    headers and body stalls a keep-alive client ~40 ms (Nagle holds the
    body until the client's delayed ACK)."""

    def test_replies_on_one_connection_are_single_writes(self):
        writes = []

        class CountingHandler(RouterRequestHandler):
            def setup(self):
                super().setup()
                self.wfile = _CountingWriter(self.wfile, writes)

        server = RouterHTTPServer(
            ("127.0.0.1", 0), make_router(addresses={}, retry_attempts=1)
        )
        server.RequestHandlerClass = CountingHandler
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        connection = http.client.HTTPConnection(
            *server.server_address[:2], timeout=10
        )
        try:
            replies = []
            for path in (
                "/healthz",  # all workers down: 503
                "/v1/session/no-such-id/schedule",  # the router's own 404
                "/no-such-route",  # nothing to proxy to: 503
                "/metrics",  # a body past 8 KiB
            ):
                mark = len(writes)
                connection.request("GET", path)
                response = connection.getresponse()
                payload = response.read()
                replies.append((response.status, payload, writes[mark:]))
        finally:
            connection.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

        assert [status for status, _, _ in replies] == [503, 404, 503, 200]
        assert json.loads(replies[0][1])["status"] == "down"
        assert json.loads(replies[1][1])["error"]["code"] == "unknown-session"
        assert len(replies[3][1]) > 8192
        for status, payload, reply_writes in replies:
            assert len(reply_writes) == 1, [len(w) for w in reply_writes]
            assert reply_writes[0].startswith(f"HTTP/1.1 {status} ".encode())
            assert reply_writes[0].endswith(b"\r\n\r\n" + payload)
