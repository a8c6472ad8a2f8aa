"""Byte-keyed hit replies on ``/v1/solve``.

Once the admission fast path has answered a request body from the
cache, the same body is answered with the remembered reply bytes --
no parse, fingerprint, rehydrate or encode -- for as long as the cache
holds the payload object the reply was encoded from.  These tests pin
that the bytes never differ from the full path's, that every metric a
hit moves still moves by the same amount, and that each way the entry
can go stale (clear, eviction and disk reload, an open breaker, a
drain) falls back to the full path.  A full-path request is told
apart from a remembered one by counting ``parse_solve_request`` calls.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro.core.solver import solve
from repro.obs.registry import get_registry
from repro.runtime.cache import ScheduleCache
from repro.serve import schemas
from repro.serve.batcher import SolveBatcher

from .conftest import solve_body, stall_batches, wait_until_solving


@pytest.fixture
def parses(monkeypatch):
    """A list that gains one entry per ``parse_solve_request`` call."""
    calls = []
    original = schemas.parse_solve_request

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(schemas, "parse_solve_request", counting)
    return calls


def _expected_hit_bytes(body):
    problem = schemas.problem_from_wire(body["problem"])
    result = solve(problem, method=body["method"])
    return schemas.encode(schemas.solve_response(result, "hit", False))


def _fastpath():
    registry = get_registry()
    return registry.sample_value("repro_server_cache_fastpath_total") or 0


def _served_200():
    return (
        get_registry().sample_value(
            "repro_server_requests_total", endpoint="solve", status="200"
        )
        or 0
    )


def _wait_served(target):
    """The request counter moves after the reply is flushed."""
    deadline = time.monotonic() + 10
    while _served_200() < target and time.monotonic() < deadline:
        time.sleep(0.01)
    return _served_200()


def _replies(service):
    return service.batcher._replies


class TestSameBytes:
    def test_first_second_and_fifth_hit_are_the_full_path_bytes(
        self, service_client, parses
    ):
        service, client = service_client
        body = solve_body()
        status, cold, _ = client.post("/v1/solve", body)
        assert status == 200 and cold["cache"] == "miss"
        hits = [client.post("/v1/solve", body) for _ in range(5)]
        assert [status for status, _, _ in hits] == [200] * 5
        expected = _expected_hit_bytes(body)
        assert hits[0][2] == expected
        assert hits[1][2] == expected
        assert hits[4][2] == expected
        assert {raw for _, _, raw in hits} == {expected}
        # The miss and the first hit parsed; the four after did not.
        assert len(parses) == 2
        assert len(_replies(service)) == 1

    def test_other_whitespace_is_a_full_path_hit(self, service_client, parses):
        service, client = service_client
        body = solve_body()
        client.post("/v1/solve", body)
        _, _, compact = client.post("/v1/solve", body)
        before = _fastpath()
        status, _, spaced = client.post(
            "/v1/solve", None, raw=json.dumps(body, indent=2).encode("utf-8")
        )
        assert status == 200
        assert spaced == compact
        assert _fastpath() == before + 1
        assert len(parses) == 3  # miss, first hit, the re-spaced body
        # Both spellings are remembered now, each under its own bytes.
        assert len(_replies(service)) == 2


class TestAccounting:
    def test_full_path_and_remembered_hits_count_alike(self, service_client):
        service, client = service_client
        body = solve_body()
        served = _served_200()
        client.post("/v1/solve", body)
        served = _wait_served(served + 1)
        deltas = []
        for _ in range(3):  # full-path hit, then two remembered hits
            fastpath, hits = _fastpath(), service.cache.stats.hits
            status, _, _ = client.post("/v1/solve", body)
            assert status == 200
            served_now = _wait_served(served + 1)
            deltas.append(
                (
                    _fastpath() - fastpath,
                    service.cache.stats.hits - hits,
                    served_now - served,
                )
            )
            served = served_now
        assert deltas == [(1, 1, 1)] * 3


class TestStaleEntries:
    def test_cleared_cache_takes_the_full_path(self, service_client, parses):
        service, client = service_client
        body = solve_body()
        _, _, cold = client.post("/v1/solve", body)
        _, _, hit = client.post("/v1/solve", body)
        assert len(_replies(service)) == 1
        service.cache.clear()
        _, again, again_raw = client.post("/v1/solve", body)
        assert again["cache"] == "miss"
        assert again_raw == cold
        assert len(parses) == 3
        assert len(_replies(service)) == 0  # the stale reply is gone
        # The next hit refills it through the full path, same bytes.
        assert client.post("/v1/solve", body)[2] == hit
        assert client.post("/v1/solve", body)[2] == hit
        assert len(parses) == 4

    def test_evicted_then_reloaded_entry_takes_the_full_path(
        self, service_client, parses
    ):
        service, client = service_client
        service.cache.capacity = 1
        body, other = solve_body(), solve_body(sensors=9)
        client.post("/v1/solve", body)
        _, _, hit = client.post("/v1/solve", body)
        client.post("/v1/solve", other)  # evicts body's entry from memory
        parsed = len(parses)
        disk_hits = service.cache.stats.disk_hits
        status, reloaded, raw = client.post("/v1/solve", body)
        assert status == 200 and reloaded["cache"] == "hit"
        assert raw == hit
        assert service.cache.stats.disk_hits == disk_hits + 1
        assert len(parses) == parsed + 1  # the reloaded payload is new
        assert client.post("/v1/solve", body)[2] == hit
        assert len(parses) == parsed + 1  # remembered again


class TestBypasses:
    def test_open_breaker_answers_degraded(self, make_service, parses):
        service, client = make_service(breaker_threshold=1)
        body = solve_body()
        client.post("/v1/solve", body)
        _, _, hit = client.post("/v1/solve", body)
        assert len(_replies(service)) == 1
        service.breaker.record_failure()
        assert service.breaker.state == "open"
        fastpath = _fastpath()
        status, degraded, _ = client.post("/v1/solve", body)
        assert status == 200
        assert degraded["degraded"] is True
        assert degraded["degraded_source"] == "stale-cache"
        assert _fastpath() == fastpath
        assert len(parses) == 3
        # The degraded reply replaced nothing.
        [(_, _, remembered)] = _replies(service).values()
        assert remembered == hit

    def test_draining_is_a_503(self, service_client):
        service, client = service_client
        body = solve_body()
        client.post("/v1/solve", body)
        client.post("/v1/solve", body)
        assert len(_replies(service)) == 1
        service.draining = True
        fastpath = _fastpath()
        status, document, _ = client.post("/v1/solve", body)
        assert status == 503
        assert document["error"]["code"] == "shutting-down"
        assert _fastpath() == fastpath

    def test_degraded_replies_are_not_remembered(self, make_service):
        service, client = make_service(breaker_threshold=1)
        service.breaker.record_failure()
        body = solve_body()
        for _ in range(3):
            status, document, _ = client.post("/v1/solve", body)
            assert status == 200 and document["degraded"] is True
        assert len(_replies(service)) == 0

    def test_batch_path_and_coalesced_replies_are_not_remembered(
        self, make_service
    ):
        service, client = make_service()
        body = solve_body(sensors=10)
        # A stalled batch of another instance holds the worker, so the
        # six duplicates queue up and form the next batch together.
        stall_batches(0.5)
        blocker = threading.Thread(
            target=client.post, args=("/v1/solve", solve_body(sensors=9))
        )
        blocker.start()
        wait_until_solving(service.batcher)
        clients = 6
        barrier = threading.Barrier(clients)
        responses = []

        def one():
            barrier.wait()
            responses.append(client.post("/v1/solve", body, timeout=30))

        threads = [threading.Thread(target=one) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads + [blocker]:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads + [blocker])
        assert [status for status, _, _ in responses] == [200] * clients
        fast_hits = sum(
            1
            for _, document, _ in responses
            if document["cache"] == "hit" and not document["coalesced"]
        )
        assert any(document["coalesced"] for _, document, _ in responses)
        # Only a straggler answered at admission may have been filed.
        assert len(_replies(service)) == min(fast_hits, 1)

    def test_simulate_is_not_remembered(self, service_client):
        service, client = service_client
        for _ in range(3):
            status, _, _ = client.post("/v1/simulate", solve_body())
            assert status == 200
        assert len(_replies(service)) == 0


class TestBound:
    def test_never_more_replies_than_cache_capacity(self, service_client):
        service, client = service_client
        service.cache.capacity = 2
        bodies = [solve_body(sensors=n) for n in (6, 7, 8, 9)]
        for body in bodies + bodies + bodies:
            status, _, _ = client.post("/v1/solve", body)
            assert status == 200
            assert len(_replies(service)) <= service.cache.capacity
        assert len(_replies(service)) == 2


class TestConcurrency:
    def test_racing_threads_keep_the_bound_and_the_pairing(self):
        """Eight threads remember, answer and invalidate replies for
        three bodies over two cache slots, with a tiny switch interval:
        nothing raises, the memo stays within the cache's capacity, and
        no body is answered with another body's reply."""
        cache = ScheduleCache(capacity=2)
        batcher = SolveBatcher(cache=cache)
        bodies = 3
        errors = []

        def worker(seed):
            try:
                for step in range(2000):
                    index = (seed * 7 + step) % bodies
                    key, digest = f"key-{index}", bytes([index])
                    reply = f"reply-{index}".encode()
                    payload = cache.peek(key)
                    if payload is None:
                        payload = {"index": index}
                        cache.put(key, payload)
                    batcher.remember_hit_reply(digest, (key, payload), reply)
                    entry = batcher.hit_reply(digest)
                    if entry is not None:
                        answer = batcher.answer_hit_reply(digest, entry)
                        assert answer in (None, reply)
                    with batcher._replies_lock:
                        assert len(batcher._replies) <= cache.capacity
            except BaseException as error:  # reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            batcher.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert 0 < len(batcher._replies) <= cache.capacity


class TestContentLength:
    def test_negative_content_length_is_a_400_not_a_hang(self, service_client):
        service, _ = service_client
        with socket.create_connection(service.address, timeout=5) as sock:
            sock.sendall(
                b"POST /v1/solve HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: -1\r\n"
                b"\r\n"
            )
            # Where the body ends is unknown, so the service answers
            # and closes the connection: read to EOF.
            reply = b""
            try:
                while chunk := sock.recv(65536):
                    reply += chunk
            except socket.timeout:
                pytest.fail(f"no reply and no close within 5 s: {reply!r}")
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(payload)["error"]["code"] == "bad-request"
