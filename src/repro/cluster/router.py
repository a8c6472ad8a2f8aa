"""The router: one public address in front of N shard workers.

The router is deliberately dumb about *solving* -- it never parses a
response beyond what routing needs, and relays worker bytes verbatim
(the differential serve tests pin responses byte-identical to a direct
solve, and a byte-copying router keeps that property for free).  It is
smart about exactly three things:

**Placement.**  Solve-shaped requests are routed by their content
fingerprint (:func:`~repro.runtime.fingerprint.solve_fingerprint`)
over a consistent :class:`~repro.cluster.hashring.HashRing`, so
identical instances land on the same worker and keep coalescing and
the in-memory cache tier effective.  A body that cannot be
fingerprinted (invalid, or a randomized method without a seed) routes
by the SHA-256 of its raw bytes -- same bytes, same worker; the worker
owns producing the structured validation error.  Session creation
routes by the *initial solve's* fingerprint, so a session lands where
its cold solve would have; thereafter the learned ``id -> shard``
table keeps every delta on the shard holding the live evaluator
state.  An id the table has never seen (a router restart) is found by
fan-out: only the owning worker answers non-404.

**Deadline accounting.**  Each forwarded request carries the
*remaining* budget in ``X-Repro-Deadline`` -- the router's configured
timeout minus time already burnt queueing and retrying here -- so a
worker never spends longer on a request than the client has left.
Worker timeouts surface as the worker's own structured 503
(``timeout``), relayed untouched; a hop that dies on the wire becomes
the same taxonomy (503 ``timeout`` / ``transient-failure``) the
single-process service uses.

**Crash absorption.**  A connection-refused forward usually means the
supervisor is mid-respawn of that shard.  Idempotent requests (solve,
simulate, GETs -- deterministic and content-addressed) are retried
against the fresh worker within the deadline; non-idempotent session
mutations are never replayed (a delta that may have applied must not
apply twice) and fail as structured 503s the client can retry at its
own seq.  When the table says a shard owned a session but the worker
answers ``unknown-session`` (crash with checkpointing disabled), the
router answers a structured **410 session-gone**: the session is
unrecoverable, and an honest "gone, recreate it" beats a lying 404.

Chaos reaches the hop through the ``router.forward`` injector site
(error/sleep), so ``repro chaos --cluster-workers`` can prove the
taxonomy above under fire.
"""

from __future__ import annotations

import hashlib
import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.hashring import HashRing
from repro.cluster.supervisor import Supervisor
from repro.faults.injector import InjectedFaultError, maybe_hit
from repro.obs import events as obs_events
from repro.obs.catalog import describe_standard_metrics
from repro.obs.export import to_prometheus
from repro.obs.registry import get_registry
from repro.runtime.fingerprint import solve_fingerprint
from repro.serve import schemas
from repro.serve.handlers import DEADLINE_HEADER, send_reply

_SESSION_ROUTE = re.compile(
    r"^(?:/v1)?/session(?:/(?P<id>[A-Za-z0-9_-]+)"
    r"(?:/(?P<action>delta|schedule))?)?$"
)

_REQUESTS_HELP = "Router requests by endpoint and status code"
_FORWARD_HELP = "Router-to-worker forward wall time"
_FORWARD_ERRORS_HELP = "Failed forwards by worker and failure kind"

#: Paths safe to replay against a respawned worker: deterministic,
#: content-addressed reads/solves.  Session mutations are absent on
#: purpose -- a delta that *may* have applied must never apply twice.
_IDEMPOTENT_ENDPOINTS = frozenset(
    {"solve", "simulate", "session-schedule", "metrics", "healthz"}
)

CLUSTER_HEALTH_KIND = "repro-cluster-health"


class ForwardError(Exception):
    """A forward that produced no worker response (wire-level failure).

    ``kind`` encodes what the failure implies about delivery:

    - ``refused``/``injected``: the request was **never delivered**
      (connect failed, worker down, fault fired before the send) --
      safe to retry for *any* request, session mutations included;
    - ``broken``: the connection died after the send -- the worker may
      have applied the request, so only idempotent work retries;
    - ``timeout``: the worker may still be working -- never retried.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind  # "refused" | "broken" | "timeout" | "injected"


class Router:
    """Routing brain shared by every handler thread (no HTTP in here)."""

    def __init__(
        self,
        supervisor: Supervisor,
        request_timeout: float = 60.0,
        retry_attempts: int = 6,
    ) -> None:
        self.supervisor = supervisor
        self.ring = HashRing(supervisor.shards())
        self.request_timeout = request_timeout
        self.retry_attempts = retry_attempts
        self.draining = False
        self._lock = threading.Lock()
        self._session_table: Dict[str, str] = {}
        self._started_at = time.monotonic()

    # -- placement -----------------------------------------------------

    def shard_for_body(self, path: str, raw: bytes) -> str:
        """The shard owning a solve-shaped request body.

        Any parse or fingerprint failure falls back to hashing the raw
        bytes: routing must be total and deterministic, and the worker
        is the one that owes the client a structured error.
        """
        key: Optional[str] = None
        try:
            document = json.loads(raw.decode("utf-8"))
            if _SESSION_ROUTE.match(path):
                document = {
                    field: document[field]
                    for field in ("problem", "method", "seed")
                    if field in document
                }
            problem, method, seed = schemas.parse_solve_request(document)
            key = solve_fingerprint(problem, method, seed)
        except Exception:
            key = None
        if key is None:
            key = hashlib.sha256(raw).hexdigest()
        return self.ring.route(key)

    def session_shard(self, session_id: str) -> Optional[str]:
        with self._lock:
            return self._session_table.get(session_id)

    def learn_session(self, session_id: str, shard: str) -> None:
        with self._lock:
            self._session_table[session_id] = shard
        obs_events.emit("router.session", id=session_id, shard=shard)

    def forget_session(self, session_id: str) -> None:
        with self._lock:
            self._session_table.pop(session_id, None)

    def session_count(self) -> int:
        with self._lock:
            return len(self._session_table)

    # -- the hop -------------------------------------------------------

    def forward(
        self,
        shard: str,
        method: str,
        path: str,
        body: Optional[bytes],
        deadline: float,
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """One attempt against ``shard``; returns (status, body, headers).

        Worker error statuses are *responses*, not exceptions -- they
        relay as-is.  Only wire-level failures raise
        :class:`ForwardError`.
        """
        budget = deadline - time.monotonic()
        if budget <= 0.0:
            raise ForwardError("timeout", "request deadline exhausted")
        try:
            maybe_hit("router.forward", shard=shard, path=path)
        except InjectedFaultError as error:
            raise ForwardError("injected", str(error)) from error
        address = self.supervisor.address(shard)
        if address is None:
            raise ForwardError("refused", f"worker {shard} is down")
        host, port = address
        request = urllib.request.Request(
            f"http://{host}:{port}{path}",
            data=body,
            method=method,
            headers={
                "Content-Type": "application/json",
                DEADLINE_HEADER: f"{budget:.3f}",
            },
        )
        started = time.perf_counter()
        try:
            with urllib.request.urlopen(
                request, timeout=min(budget, self.request_timeout)
            ) as response:
                payload = response.read()
                status = response.status
                headers = dict(response.headers.items())
        except urllib.error.HTTPError as error:
            payload = error.read()
            status = error.code
            headers = dict(error.headers.items())
        except (socket.timeout, TimeoutError) as error:
            self._count_forward_error(shard, "timeout")
            raise ForwardError(
                "timeout", f"worker {shard} did not answer in time"
            ) from error
        except (urllib.error.URLError, ConnectionError, OSError) as error:
            reason = getattr(error, "reason", error)
            if isinstance(reason, (socket.timeout, TimeoutError)):
                kind = "timeout"
            elif isinstance(reason, ConnectionRefusedError):
                kind = "refused"  # connect failed: never delivered
            else:
                kind = "broken"  # died after the send: maybe applied
            self._count_forward_error(shard, kind)
            raise ForwardError(
                kind, f"worker {shard} unreachable: {error}"
            ) from error
        get_registry().histogram(
            "repro_router_forward_seconds", _FORWARD_HELP, worker=shard
        ).observe(time.perf_counter() - started)
        return status, payload, headers

    def _count_forward_error(self, shard: str, kind: str) -> None:
        get_registry().counter(
            "repro_router_forward_errors_total",
            _FORWARD_ERRORS_HELP,
            worker=shard,
            kind=kind,
        ).inc()

    # -- aggregate health ----------------------------------------------

    def cluster_health(self) -> Tuple[int, Dict[str, Any]]:
        """Fan out to every worker; one JSON document for the fleet."""
        workers: List[Dict[str, Any]] = []
        healthy = 0
        for entry in self.supervisor.describe():
            record: Dict[str, Any] = dict(entry)
            address = self.supervisor.address(entry["shard"])
            if address is not None and entry["state"] == "up":
                host, port = address
                try:
                    with urllib.request.urlopen(
                        f"http://{host}:{port}/healthz", timeout=2.0
                    ) as response:
                        detail = json.loads(response.read().decode("utf-8"))
                except (urllib.error.URLError, OSError, ValueError):
                    record["state"] = "restarting"  # alive pid, dead socket
                else:
                    healthy += 1
                    record["status"] = detail.get("status")
                    record["sessions"] = detail.get("sessions")
                    record["queue_depth"] = detail.get("queue_depth")
                    record["breaker"] = detail.get("breaker")
            workers.append(record)
        if self.draining:
            status = "draining"
        elif healthy == len(workers):
            status = "ok"
        elif healthy > 0:
            status = "degraded"
        else:
            status = "down"
        body = {
            "kind": CLUSTER_HEALTH_KIND,
            "version": schemas.WIRE_VERSION,
            "status": status,
            "workers": workers,
            "router": {
                "uptime_seconds": round(
                    time.monotonic() - self._started_at, 3
                ),
                "sessions_routed": self.session_count(),
            },
        }
        return (503 if status in ("draining", "down") else 200), body


class RouterHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer handing its handlers the router object."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], router: Router):
        self.router = router
        super().__init__(address, RouterRequestHandler)


class RouterRequestHandler(BaseHTTPRequestHandler):
    """One connection's worth of routing (threaded, like the workers)."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-router/1"

    @property
    def router(self) -> Router:
        return self.server.router  # type: ignore[attr-defined]

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/healthz":
            self._timed("healthz", self._handle_healthz)
        elif self.path == "/metrics":
            self._timed("metrics", self._handle_metrics)
        else:
            session = _SESSION_ROUTE.match(self.path)
            if session is not None and session.group("id"):
                self._timed(
                    "session-schedule",
                    lambda: self._handle_session(
                        "GET", session.group("id"), None
                    ),
                )
            else:
                self._timed("proxy", lambda: self._proxy_by_body("GET"))

    def do_POST(self) -> None:  # noqa: N802
        session = _SESSION_ROUTE.match(self.path)
        if session is not None and session.group("id"):
            self._timed(
                "session-delta",
                lambda: self._handle_session(
                    "POST", session.group("id"), self._read_body()
                ),
            )
        elif session is not None:
            self._timed("session", self._handle_session_create)
        else:
            endpoint = (
                "solve"
                if self.path == "/v1/solve"
                else "simulate"
                if self.path == "/v1/simulate"
                else "proxy"
            )
            self._timed(endpoint, lambda: self._proxy_by_body("POST"))

    def do_DELETE(self) -> None:  # noqa: N802
        session = _SESSION_ROUTE.match(self.path)
        if session is not None and session.group("id"):
            self._timed(
                "session-delete",
                lambda: self._handle_session(
                    "DELETE", session.group("id"), None
                ),
            )
        else:
            self._timed("proxy", lambda: self._proxy_by_body("DELETE"))

    # -- handlers ------------------------------------------------------

    def _handle_healthz(self) -> Tuple[int, bytes, str]:
        status, body = self.router.cluster_health()
        return status, schemas.encode(body), "healthz"

    def _handle_metrics(self) -> Tuple[int, bytes, str]:
        registry = get_registry()
        describe_standard_metrics(registry)
        return 200, to_prometheus(registry).encode("utf-8"), "metrics"

    def _proxy_by_body(self, method: str) -> Tuple[int, bytes, str]:
        """Route a solve-shaped request by its content fingerprint."""
        router = self.router
        if router.draining:
            return self._structured(
                503, "shutting-down", "cluster is draining; retry elsewhere"
            )
        body = self._read_body() if method == "POST" else None
        shard = router.shard_for_body(self.path, body or b"")
        return self._forward_with_retries(shard, method, body)

    def _handle_session_create(self) -> Tuple[int, bytes, str]:
        router = self.router
        if router.draining:
            return self._structured(
                503, "shutting-down", "cluster is draining; retry elsewhere"
            )
        body = self._read_body()
        shard = router.shard_for_body(self.path, body or b"")
        status, payload, headers = self._forward_with_retries(
            shard, "POST", body
        )
        if status == 200:
            session_id = _session_id_of(payload)
            if session_id is not None:
                router.learn_session(session_id, shard)
        return status, payload, headers

    def _handle_session(
        self, method: str, session_id: str, body: Optional[bytes]
    ) -> Tuple[int, bytes, str]:
        """Route an existing session's request to its sticky shard."""
        router = self.router
        if router.draining:
            return self._structured(
                503, "shutting-down", "cluster is draining; retry elsewhere"
            )
        shard = router.session_shard(session_id)
        if shard is None:
            return self._session_fanout(method, session_id, body)
        status, payload, headers = self._forward_with_retries(
            shard, method, body
        )
        if status == 404 and _error_code_of(payload) == "unknown-session":
            # The table says this shard owned the session, the worker
            # says it has never heard of it: the state died with a
            # crashed worker (checkpointing disabled).  Honest answer:
            # gone, not unknown.
            router.forget_session(session_id)
            return self._structured(
                410,
                "session-gone",
                f"session {session_id!r} was lost when its worker "
                "crashed (no checkpointing); recreate it",
            )
        if status in (200,) and method == "DELETE":
            router.forget_session(session_id)
        elif status == 410:
            router.forget_session(session_id)
        return status, payload, headers

    def _session_fanout(
        self, method: str, session_id: str, body: Optional[bytes]
    ) -> Tuple[int, bytes, str]:
        """Find an unknown session id by asking every shard.

        Only the owning worker answers anything but ``unknown-session``
        (ids are uuid-unique across the fleet), so the first non-404
        answer is authoritative.  Used after a router restart, when the
        learned table is empty but workers still hold live sessions.
        """
        router = self.router
        last: Optional[Tuple[int, bytes, Dict[str, str]]] = None
        for shard in router.ring.shards:
            try:
                status, payload, headers = router.forward(
                    shard, method, self.path, body, self._deadline
                )
            except ForwardError:
                continue
            content_type = _content_type_of(headers)
            if status == 404 and _error_code_of(payload) == "unknown-session":
                last = (status, payload, content_type)
                continue
            router.learn_session(session_id, shard)
            return status, payload, content_type
        if last is not None:
            return last
        return self._structured(
            404, "unknown-session", f"no shard knows session {session_id!r}"
        )

    # -- forwarding ----------------------------------------------------

    def _forward_with_retries(
        self, shard: str, method: str, body: Optional[bytes]
    ) -> Tuple[int, bytes, str]:
        """Forward, absorbing respawn gaps for idempotent requests."""
        router = self.router
        endpoint = self._endpoint_name(method)
        idempotent = endpoint in _IDEMPOTENT_ENDPOINTS
        failure: Optional[ForwardError] = None
        for attempt in range(router.retry_attempts):
            try:
                status, payload, headers = router.forward(
                    shard, method, self.path, body, self._deadline
                )
            except ForwardError as error:
                failure = error
                # Undelivered failures (refused/injected) retry for any
                # request -- the worker is likely mid-respawn and the
                # mutation cannot have applied.  A connection that died
                # mid-flight only retries idempotent work.
                undelivered = error.kind in ("refused", "injected")
                if not undelivered and not (
                    idempotent and error.kind == "broken"
                ):
                    break
                remaining = self._deadline - time.monotonic()
                if remaining <= 0.1:
                    break
                time.sleep(min(0.25 * (attempt + 1), remaining / 2))
                continue
            return status, payload, _content_type_of(headers)
        assert failure is not None
        if failure.kind == "timeout":
            return self._structured(503, "timeout", str(failure))
        return self._structured(503, "transient-failure", str(failure))

    def _structured(
        self, status: int, code: str, message: str
    ) -> Tuple[int, bytes, str]:
        return (
            status,
            schemas.encode(schemas.error_body(code, message)),
            "application/json; charset=utf-8",
        )

    def _endpoint_name(self, method: str) -> str:
        session = _SESSION_ROUTE.match(self.path)
        if self.path == "/v1/solve":
            return "solve"
        if self.path == "/v1/simulate":
            return "simulate"
        if session is not None:
            if not session.group("id"):
                return "session"
            if method == "DELETE":
                return "session-delete"
            if session.group("action") == "delta":
                return "session-delta"
            return "session-schedule"
        return "proxy"

    # -- plumbing ------------------------------------------------------

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        return self.rfile.read(length) if length > 0 else b""

    def _timed(self, endpoint: str, handler) -> None:
        self._deadline = time.monotonic() + self.router.request_timeout
        start = time.perf_counter()
        try:
            status, payload, content_type = handler()
        except Exception as error:  # never hang a client on a router bug
            status, payload, content_type = self._structured(
                500, "internal", f"{type(error).__name__}: {error}"
            )
        if content_type == "metrics":
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif content_type == "healthz" or not content_type.startswith(
            ("text/", "application/")
        ):
            content_type = "application/json; charset=utf-8"
        send_reply(self, status, content_type, payload)
        registry = get_registry()
        registry.counter(
            "repro_router_requests_total",
            _REQUESTS_HELP,
            endpoint=endpoint,
            status=str(status),
        ).inc()
        registry.histogram(
            "repro_server_request_seconds",
            "HTTP request wall time by endpoint",
            endpoint=f"router-{endpoint}",
        ).observe(time.perf_counter() - start)

    def log_message(self, format: str, *args: Any) -> None:
        obs_events.emit(
            "router.access",
            client=self.client_address[0],
            line=format % args,
        )


def _content_type_of(headers: Dict[str, str]) -> str:
    for name, value in headers.items():
        if name.lower() == "content-type":
            return value
    return "application/json; charset=utf-8"


def _session_id_of(payload: bytes) -> Optional[str]:
    """The session id inside a create response, or ``None``."""
    try:
        document = json.loads(payload.decode("utf-8"))
        session_id = document["session"]["id"]
    except (ValueError, KeyError, TypeError):
        return None
    return session_id if isinstance(session_id, str) else None


def _error_code_of(payload: bytes) -> Optional[str]:
    """The structured error code inside a worker error body, if any."""
    try:
        document = json.loads(payload.decode("utf-8"))
        code = document["error"]["code"]
    except (ValueError, KeyError, TypeError):
        return None
    return code if isinstance(code, str) else None
