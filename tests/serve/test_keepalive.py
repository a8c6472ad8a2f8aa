"""Keep-alive: every reply leaves the service in exactly one write.

A reply written as two sends (headers, then body) stalls on a
persistent connection: Nagle's algorithm holds the second segment until
the client's delayed ACK, about 40 ms later.  Clients that open a fresh
connection per request (``urllib``, one ``curl`` per URL) never see it,
so these tests drive one ``http.client.HTTPConnection`` through every
reply shape -- solve miss and hit, structured 400/404/429, a
``/metrics`` body over 8 KiB -- and count the handler's writes per reply.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.serve.handlers import ServiceRequestHandler

from .conftest import solve_body, stall_batches


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


@pytest.fixture
def keepalive(make_service):
    """A started service whose handlers log writes, plus one persistent
    connection to it; yields ``(service, client, exchange)``."""
    writes = []
    opened = []

    class CountingHandler(ServiceRequestHandler):
        def setup(self):
            super().setup()
            self.wfile = _CountingWriter(self.wfile, writes)

    def start(**overrides):
        service, client = make_service(**overrides)
        service._httpd.RequestHandlerClass = CountingHandler
        host, port = service.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        opened.append(connection)

        def exchange(method, path, body=None, raw=None):
            """One request on the shared connection; returns
            ``(response, payload, writes made for this reply)``."""
            mark = len(writes)
            data = raw if raw is not None else (
                None if body is None else json.dumps(body).encode("utf-8")
            )
            headers = {"Content-Type": "application/json"} if data else {}
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            payload = response.read()
            return response, payload, writes[mark:]

        return service, client, exchange

    yield start
    for connection in opened:
        connection.close()


def _assert_one_write(response, payload, reply_writes):
    assert len(reply_writes) == 1, [len(w) for w in reply_writes]
    (wire,) = reply_writes
    assert wire.startswith(f"HTTP/1.1 {response.status} ".encode())
    assert wire.endswith(b"\r\n\r\n" + payload)
    assert response.getheader("Content-Length") == str(len(payload))


class TestOneWritePerReply:
    def test_every_reply_shape_on_one_connection(self, keepalive):
        _, client, exchange = keepalive()

        response, payload, reply_writes = exchange(
            "POST", "/v1/solve", solve_body()
        )
        _assert_one_write(response, payload, reply_writes)
        assert response.status == 200
        assert json.loads(payload)["cache"] == "miss"

        response, hit, reply_writes = exchange(
            "POST", "/v1/solve", solve_body()
        )
        _assert_one_write(response, hit, reply_writes)
        assert json.loads(hit)["cache"] == "hit"

        response, payload, reply_writes = exchange(
            "POST", "/v1/solve", raw=b"{not json"
        )
        _assert_one_write(response, payload, reply_writes)
        assert response.status == 400
        assert json.loads(payload)["error"]["code"] == "bad-json"

        response, payload, reply_writes = exchange("GET", "/v2/solve")
        _assert_one_write(response, payload, reply_writes)
        assert response.status == 404
        assert json.loads(payload)["error"]["code"] == "not-found"

        response, payload, reply_writes = exchange("GET", "/metrics")
        _assert_one_write(response, payload, reply_writes)
        assert response.status == 200
        assert len(payload) > 8192  # past BufferedWriter's default size
        assert response.getheader("Content-Type").startswith("text/plain")

        # The persistent connection answers byte-for-byte what a fresh
        # urllib connection does.
        status, _, fresh = client.post("/v1/solve", solve_body())
        assert status == 200
        assert fresh == hit

    def test_overload_429_carries_retry_after(self, keepalive):
        # One in-flight slot held by a stalled batch: the keep-alive
        # request behind it is shed at the door.
        service, client, exchange = keepalive(max_queue=1, use_cache=False)
        stall_batches(1.0)
        holder = threading.Thread(
            target=client.post, args=("/v1/solve", solve_body(sensors=5))
        )
        holder.start()
        try:
            deadline = time.monotonic() + 5.0
            while service.batcher.queue_depth() < 1:
                assert time.monotonic() < deadline, "holder never queued"
                time.sleep(0.005)
            response, payload, reply_writes = exchange(
                "POST", "/v1/solve", solve_body(sensors=6)
            )
        finally:
            holder.join(timeout=30)
        assert not holder.is_alive()
        _assert_one_write(response, payload, reply_writes)
        assert response.status == 429
        assert response.getheader("Retry-After") == "1"
        assert json.loads(payload)["error"]["code"] == "overloaded"

    def test_http09_request_gets_a_bare_body(self, make_service):
        service, client = make_service()
        _, _, expected = client.get("/healthz")
        with socket.create_connection(service.address, timeout=10) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")  # no headers follow
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        body = json.loads(b"".join(chunks))
        assert body["status"] == "ok"
        assert set(body) == set(json.loads(expected))


class TestNoStall:
    def test_twenty_healthz_on_one_connection(self, keepalive):
        """Stalled, each reply costs a delayed ACK (~40 ms): 20 take
        >= 0.8 s.  Sent in one write, they take a few milliseconds."""
        _, _, exchange = keepalive()
        exchange("GET", "/healthz")  # warm the handler thread
        start = time.perf_counter()
        for _ in range(20):
            response, _, _ = exchange("GET", "/healthz")
            assert response.status == 200
        assert time.perf_counter() - start < 0.4


class TestOversizedBody:
    def test_413_closes_the_connection(self, keepalive):
        """An over-limit body is never read, so its bytes must not be
        parsed as the next request: the structured 413 announces the
        close, and the next request on the same client object goes out
        on a fresh connection."""
        _, _, exchange = keepalive(max_body_bytes=64)
        body = solve_body()
        assert len(json.dumps(body)) > 64
        response, payload, reply_writes = exchange("POST", "/v1/solve", body)
        _assert_one_write(response, payload, reply_writes)
        assert response.status == 413
        assert response.getheader("Connection") == "close"
        assert json.loads(payload)["error"]["code"] == "body-too-large"

        response, payload, _ = exchange("GET", "/healthz")
        assert response.status == 200
        assert json.loads(payload)["status"] == "ok"


class TestUnreadBody:
    @pytest.mark.parametrize(
        "method, path, status",
        [
            ("POST", "/metrics", 405),
            ("POST", "/no-such-route", 404),
            ("POST", "/session/abc", 405),
        ],
    )
    def test_reply_without_reading_the_body_closes(
        self, keepalive, method, path, status
    ):
        """A route that answers without reading the declared body must
        not leave it on the connection, where it would be parsed as the
        next request: the reply announces the close, and the next
        request on the same client object gets the health reply, not
        ``http.server``'s HTML 400."""
        _, _, exchange = keepalive()
        response, payload, _ = exchange(method, path, {"x": 1})
        assert response.status == status
        assert response.getheader("Connection") == "close"
        assert json.loads(payload)["error"]["code"] in (
            "method-not-allowed",
            "not-found",
        )

        response, payload, _ = exchange("GET", "/healthz")
        assert response.status == 200
        assert json.loads(payload)["kind"] == "repro-health"

    def test_read_body_keeps_the_connection(self, keepalive):
        _, _, exchange = keepalive()
        response, _, _ = exchange("POST", "/v1/solve", solve_body())
        assert response.status == 200
        assert response.getheader("Connection") is None


def _expect_100_exchange(service, length, body=b""):
    """POST ``/v1/solve`` with ``Expect: 100-continue`` over a raw
    socket, declaring ``length`` body bytes and sending ``body`` only
    after an interim ``100``.  Returns every byte the server sent
    before it closed the connection or went quiet."""
    head = (
        "POST /v1/solve HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {length}\r\n"
        "Expect: 100-continue\r\n"
        "Connection: close\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection(service.address, timeout=10) as sock:
        sock.sendall(head)
        received = sock.recv(65536)
        if received.startswith(b"HTTP/1.1 100 ") and body:
            sock.sendall(body)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            received += chunk
    return received


class TestExpectContinue:
    def test_over_limit_gets_413_and_no_100(self, make_service):
        """A declared body over ``max_body_bytes`` is refused before the
        client sends it: the structured 413 with ``Connection: close``,
        and never a ``100 Continue`` that invites the body."""
        service, _ = make_service(max_body_bytes=64)
        received = _expect_100_exchange(service, 2_000_000)
        assert b"HTTP/1.1 100" not in received
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"\r\nConnection: close" in head
        assert json.loads(payload)["error"]["code"] == "body-too-large"

    def test_within_limit_continues_and_solves(self, make_service):
        service, _ = make_service()
        body = json.dumps(solve_body()).encode("utf-8")
        received = _expect_100_exchange(service, len(body), body)
        interim, _, final = received.partition(b"\r\n\r\n")
        assert interim.startswith(b"HTTP/1.1 100 ")
        head, _, payload = final.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(payload)["result"]["total_utility"] > 0


class TestChunkedBody:
    def test_chunked_body_gets_411_and_closes(self, make_service):
        """Nothing here decodes a ``Transfer-Encoding: chunked`` body, so
        it is refused unread: the structured 411 announces the close,
        the connection ends, and the chunk bytes and the request sent
        behind them are never parsed as requests."""
        service, _ = make_service()
        body = json.dumps(solve_body()).encode("utf-8")
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        request = (
            b"POST /v1/solve HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + chunked
            + b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
        )
        with socket.create_connection(service.address, timeout=10) as sock:
            sock.sendall(request)
            received = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        head, _, payload = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411 ")
        assert b"\r\nConnection: close" in head
        length = int(
            next(
                line.split(b":", 1)[1]
                for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            )
        )
        assert len(payload) == length  # one reply, then EOF
        assert json.loads(payload)["error"]["code"] == "length-required"

    def test_next_request_gets_a_fresh_connection(self, keepalive):
        _, _, exchange = keepalive()
        body = json.dumps(solve_body()).encode("utf-8")
        # An iterable body with no length goes out chunked.
        response, payload, _ = exchange("POST", "/v1/solve", raw=iter([body]))
        assert response.status == 411
        assert response.getheader("Connection") == "close"
        assert json.loads(payload)["error"]["code"] == "length-required"

        response, payload, _ = exchange("GET", "/healthz")
        assert response.status == 200
        assert json.loads(payload)["kind"] == "repro-health"
