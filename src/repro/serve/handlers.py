"""HTTP request handling: routing, validation, status mapping, metrics.

One :class:`ServiceRequestHandler` instance handles one connection
(``ThreadingHTTPServer`` gives each its own thread).  The handler is
deliberately thin: parse and validate at the door, delegate solving to
the shared :class:`~repro.serve.batcher.SolveBatcher`, and map every
failure mode to a structured JSON error:

====================================  ======  =====================
condition                             status  error code
====================================  ======  =====================
unknown path                          404     ``not-found``
wrong HTTP method for the path        405     ``method-not-allowed``
negative or unreadable Content-Length 400     ``bad-request``
body sent with Transfer-Encoding      411     ``length-required``
body exceeds ``max_body_bytes``       413     ``body-too-large``
body is not valid JSON                400     ``bad-json``
schema/semantic validation failure    400     (from ``WireError``)
malformed/unsupported delta           400     (from ``DeltaError``)
unknown session id                    404     ``unknown-session``
session evicted mid-request           409     ``session-evicted``
session evicted (TTL/capacity/DELETE) 410     ``session-gone``
queue full                            429     ``overloaded``
session store full, none idle         429     ``too-many-sessions``
service draining                      503     ``shutting-down``
request/deadline timeout              503     ``timeout``
transient infra failure (retries up)  503     ``transient-failure``
circuit breaker open, no fallback     503     ``degraded-unavailable``
solver/internal failure               500     ``internal``
session state corrupt (rolled back)   500     ``session-state``
====================================  ======  =====================

Session routes (``/v1/session...``, bare ``/session...`` accepted)
follow the same resilience contract as one-shot solves, scoped to
what each request actually needs: a *warm* delta never touches the
guarded cold-solve path, so it bypasses the circuit breaker entirely;
a delta that needs a cold re-solve (structural, or any delta of an
``exact`` session) is breaker-admitted like a solve, and when the
breaker is open the session answers from the warm-repair fallback
with ``"degraded": true`` -- or a structured 503 when only a cold
answer would do.  The per-request deadline propagates into the
warm-repair/re-plan inner loops, and a delta that dies for any reason
(deadline included) is rolled back: the session stays at its
pre-delta state.

Timeouts, deadline exhaustion and retry-exhausted transient errors
feed the service's :class:`~repro.serve.breaker.CircuitBreaker`; when
it opens, solve traffic is answered from the degraded path
(:mod:`repro.serve.degrade` -- stale cache or bounded serial greedy,
the response flagged ``"degraded": true``) and only falls through to
a structured 503 when no fallback applies.  Validation errors and
deterministic solver failures never trip the breaker.

A ``/v1/solve`` body identical to one the cache fast path already
answered gets the remembered reply bytes back without being parsed
(:meth:`~repro.serve.batcher.SolveBatcher.hit_reply`), after the same
draining and breaker checks and only while the cache still holds the
payload the reply was encoded from.

429 responses carry ``Retry-After: 1`` -- the queue turns over in
one batch's solve time, so an immediate retry storm is the only wrong
answer.  Every request increments
``repro_server_requests_total{endpoint,status}`` and observes
``repro_server_request_seconds{endpoint}``.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from http.server import BaseHTTPRequestHandler
from typing import Any, Dict, Optional, Tuple

from repro.obs import events as obs_events
from repro.obs.catalog import describe_standard_metrics
from repro.obs.export import to_prometheus
from repro.obs.registry import get_registry
from repro.policies.schedule_policy import SchedulePolicy
from repro.runtime.retry import is_retryable
from repro.serve import degrade, schemas
from repro.serve.batcher import BatcherClosedError, OverloadedError
from repro.sessions.deltas import DeltaError, apply_delta
from repro.sessions.session import (
    ColdResolveUnavailableError,
    SessionClosedError,
    SessionStateError,
)
from repro.sessions.store import (
    SessionGoneError,
    SessionNotFoundError,
    StoreFullError,
)
from repro.sim.engine import SimulationEngine
from repro.sim.network import SensorNetwork

#: ``/v1/session``, ``/v1/session/{id}``, ``/v1/session/{id}/delta``,
#: ``/v1/session/{id}/schedule`` -- with or without the ``/v1`` prefix.
_SESSION_ROUTE = re.compile(
    r"^(?:/v1)?/session(?:/(?P<id>[A-Za-z0-9_-]+)"
    r"(?:/(?P<action>delta|schedule))?)?$"
)

_REQUESTS_HELP = "HTTP requests by endpoint and status code"
_LATENCY_HELP = "HTTP request wall time by endpoint"

def send_reply(
    handler: BaseHTTPRequestHandler,
    status: int,
    content_type: str,
    payload: bytes,
) -> None:
    """Write one complete response -- status line, headers, body -- in
    a single send.

    ``end_headers()`` followed by ``wfile.write(payload)`` is two sends;
    on a keep-alive connection Nagle's algorithm then holds the small
    second segment until the client's delayed ACK, about 40 ms per
    reply.  This does what ``end_headers`` does, with the body appended
    to the header buffer before the one flush.  The bytes on the wire
    are unchanged; only their split into segments is.
    """
    try:
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(payload)))
        if status == 429:
            handler.send_header("Retry-After", "1")
        if handler.close_connection:
            # Announce the close so a keep-alive client reconnects for
            # its next request instead of writing into a dead socket.
            handler.send_header("Connection", "close")
        if handler.request_version == "HTTP/0.9":
            handler.wfile.write(payload)  # 0.9 replies carry no headers
            return
        handler._headers_buffer.append(b"\r\n" + payload)
        handler.flush_headers()
    except (BrokenPipeError, ConnectionResetError):
        pass  # client went away; nothing left to tell it


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/solve``, ``/v1/simulate``, ``/metrics``, ``/healthz``."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    #: Whether the current request's body was read (by :meth:`_read_body`).
    _body_read = False

    # The service object is attached by app.ServiceHTTPServer.
    @property
    def service(self):
        return self.server.service  # type: ignore[attr-defined]

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server convention)
        session = _SESSION_ROUTE.match(self.path)
        if self.path == "/metrics":
            self._timed("metrics", self._handle_metrics)
        elif self.path == "/healthz":
            self._timed("healthz", self._handle_healthz)
        elif self.path in ("/v1/solve", "/v1/simulate"):
            self._error("solve", 405, "method-not-allowed", "use POST")
        elif session is not None:
            if session.group("id") and session.group("action") == "schedule":
                self._timed(
                    "session-schedule",
                    lambda: self._handle_session_schedule(session.group("id")),
                )
            else:
                self._error(
                    "session",
                    405,
                    "method-not-allowed",
                    "GET /session/{id}/schedule (POST creates, "
                    "POST .../delta mutates, DELETE evicts)",
                )
        else:
            self._error("unknown", 404, "not-found", f"no route {self.path}")

    def do_POST(self) -> None:  # noqa: N802
        session = _SESSION_ROUTE.match(self.path)
        if self.path == "/v1/solve":
            self._timed("solve", self._handle_solve)
        elif self.path == "/v1/simulate":
            self._timed("simulate", self._handle_simulate)
        elif self.path in ("/metrics", "/healthz"):
            self._error("metrics", 405, "method-not-allowed", "use GET")
        elif session is not None:
            session_id = session.group("id")
            action = session.group("action")
            if session_id is None:
                self._timed("session", self._handle_session_create)
            elif action == "delta":
                self._timed(
                    "session-delta",
                    lambda: self._handle_session_delta(session_id),
                )
            else:
                self._error(
                    "session",
                    405,
                    "method-not-allowed",
                    "POST /session or POST /session/{id}/delta",
                )
        else:
            self._error("unknown", 404, "not-found", f"no route {self.path}")

    def do_DELETE(self) -> None:  # noqa: N802
        session = _SESSION_ROUTE.match(self.path)
        if session is not None and session.group("id") and not session.group(
            "action"
        ):
            self._timed(
                "session-delete",
                lambda: self._handle_session_delete(session.group("id")),
            )
        elif session is not None:
            self._error(
                "session", 405, "method-not-allowed", "DELETE /session/{id}"
            )
        else:
            self._error("unknown", 404, "not-found", f"no route {self.path}")

    # -- endpoints -----------------------------------------------------

    def _handle_solve(self) -> Tuple[int, bytes]:
        raw, failure = self._read_body()
        if failure is not None:
            return failure
        service = self.service
        batcher = service.batcher
        digest = hashlib.sha256(raw).digest()
        entry = batcher.hit_reply(digest)
        if (
            entry is not None
            and not service.draining
            and service.breaker.allow()
        ):
            reply = batcher.answer_hit_reply(digest, entry)
            if reply is not None:
                service.breaker.record_success()
                return 200, reply
            # Stale: give the admission back; the full path asks again.
            service.breaker.record_neutral()
        document, failure = self._parse_json(raw)
        if failure is not None:
            return failure
        try:
            problem, method, seed = schemas.parse_solve_request(
                document, max_sensors=service.config.max_sensors
            )
        except schemas.WireError as error:
            return self._error_response(400, error.code, error.message)
        return self._solve_and_respond(
            problem, method, seed, simulate=None, body_digest=digest
        )

    def _handle_simulate(self) -> Tuple[int, bytes]:
        document, failure = self._read_json()
        if failure is not None:
            return failure
        try:
            problem, method, seed, slots = schemas.parse_simulate_request(
                document,
                max_sensors=self.service.config.max_sensors,
                max_slots=self.service.config.max_slots,
            )
        except schemas.WireError as error:
            return self._error_response(400, error.code, error.message)
        return self._solve_and_respond(
            problem,
            method,
            seed,
            simulate=slots if slots is not None else problem.total_slots,
        )

    def _solve_and_respond(
        self,
        problem,
        method,
        seed,
        simulate: Optional[int],
        body_digest: Optional[bytes] = None,
    ) -> Tuple[int, bytes]:
        """Solve under the breaker and reply.  ``body_digest`` (solve
        only) files a fast-path hit's reply under its request body."""
        service = self.service
        if service.draining:
            return self._error_response(
                503, "shutting-down", "service is draining; retry elsewhere"
            )
        breaker = service.breaker
        if not breaker.allow():
            # Tripped: do not queue doomed work; answer degraded.
            return self._degraded_response(
                problem,
                method,
                seed,
                simulate,
                "degraded-unavailable",
                "solve path unhealthy (circuit breaker open) and no "
                "degraded answer is available",
            )
        try:
            planned, meta = service.batcher.submit(
                problem,
                method,
                seed,
                timeout=self.service.config.request_timeout,
            )
        except OverloadedError as error:
            # Load shedding, not backend failure: no breaker signal.
            breaker.record_neutral()
            return self._error_response(429, "overloaded", str(error))
        except BatcherClosedError:
            breaker.record_neutral()
            return self._error_response(
                503, "shutting-down", "service is draining; retry elsewhere"
            )
        except TimeoutError as error:
            # Covers DeadlineExceededError too: the solve path failed
            # to answer inside the client's budget.
            breaker.record_failure()
            return self._degraded_response(
                problem, method, seed, simulate, "timeout", str(error)
            )
        except Exception as error:
            if is_retryable(error):
                # Transient infrastructure failure that survived the
                # retry budget: feed the breaker, try the fallback.
                breaker.record_failure()
                return self._degraded_response(
                    problem,
                    method,
                    seed,
                    simulate,
                    "transient-failure",
                    f"{type(error).__name__}: {error}",
                )
            # Deterministic solver bug: fail this request only; it
            # says nothing about the health of the serving path.
            breaker.record_neutral()
            return self._error_response(
                500, "internal", f"{type(error).__name__}: {error}"
            )
        breaker.record_success()
        status, reply = self._respond(problem, planned, meta, simulate)
        if body_digest is not None and "found" in meta:
            service.batcher.remember_hit_reply(
                body_digest, meta["found"], reply
            )
        return status, reply

    def _degraded_response(
        self, problem, method, seed, simulate, code: str, message: str
    ) -> Tuple[int, bytes]:
        """A degraded 200 if a fallback applies, else a structured 503."""
        service = self.service
        if service.config.degrade:
            answer = degrade.degraded_answer(
                problem,
                method,
                seed,
                service.cache,
                service.config.degraded_max_sensors,
            )
            if answer is not None:
                planned, meta = answer
                return self._respond(problem, planned, meta, simulate)
        return self._error_response(503, code, message)

    def _respond(
        self, problem, planned, meta: Dict[str, Any], simulate: Optional[int]
    ) -> Tuple[int, bytes]:
        degraded_source = meta.get("degraded_source")
        if simulate is None:
            body = schemas.solve_response(
                planned,
                meta["cache"],
                meta["coalesced"],
                degraded_source=degraded_source,
            )
            return 200, schemas.encode(body)
        # Simulation is per-request work (the solve above was batched):
        # execute the planned schedule on a fresh simulated network.
        schedule = (
            planned.periodic if planned.periodic is not None else planned.schedule
        )
        engine = SimulationEngine(
            SensorNetwork.from_problem(problem), SchedulePolicy(schedule)
        )
        sim = engine.run(min(simulate, problem.total_slots))
        body = schemas.simulate_response(
            planned,
            sim,
            meta["cache"],
            meta["coalesced"],
            degraded_source=degraded_source,
        )
        return 200, schemas.encode(body)

    # -- sessions ------------------------------------------------------

    def _sessions_or_error(self):
        """The store, or a ready-made failure response."""
        service = self.service
        if service.sessions is None:
            return None, self._error_response(
                404, "not-found", "sessions are disabled on this service"
            )
        if service.draining:
            return None, self._error_response(
                503, "shutting-down", "service is draining; retry elsewhere"
            )
        return service.sessions, None

    def _handle_session_create(self) -> Tuple[int, bytes]:
        document, failure = self._read_json()
        if failure is not None:
            return failure
        try:
            problem, method, seed, consistency = schemas.parse_session_create(
                document, max_sensors=self.service.config.max_sensors
            )
        except schemas.WireError as error:
            return self._error_response(400, error.code, error.message)
        store, failure = self._sessions_or_error()
        if failure is not None:
            return failure
        service = self.service
        breaker = service.breaker

        # The initial solve is ordinary solve traffic: it flows through
        # the batcher (cache fast path, coalescing with identical
        # one-shot requests) under the breaker, with the same degraded
        # fallback.  Only the *deltas* bypass the batcher -- they are
        # session-affine and never coalescible.
        degraded_source: Optional[str] = None
        incumbent: Optional[Dict[int, int]] = None
        if not breaker.allow():
            planned = self._degraded_plan(problem, method, seed)
            if planned is None:
                return self._error_response(
                    503,
                    "degraded-unavailable",
                    "solve path unhealthy (circuit breaker open) and no "
                    "degraded incumbent is available",
                )
            incumbent, degraded_source = planned
        else:
            try:
                result, meta = service.batcher.submit(
                    problem,
                    method,
                    seed,
                    timeout=self.service.config.request_timeout,
                )
            except OverloadedError as error:
                breaker.record_neutral()
                return self._error_response(429, "overloaded", str(error))
            except BatcherClosedError:
                breaker.record_neutral()
                return self._error_response(
                    503, "shutting-down", "service is draining; retry elsewhere"
                )
            except TimeoutError as error:
                breaker.record_failure()
                planned = self._degraded_plan(problem, method, seed)
                if planned is None:
                    return self._error_response(503, "timeout", str(error))
                incumbent, degraded_source = planned
            except Exception as error:
                if is_retryable(error):
                    breaker.record_failure()
                    planned = self._degraded_plan(problem, method, seed)
                    if planned is None:
                        return self._error_response(
                            503,
                            "transient-failure",
                            f"{type(error).__name__}: {error}",
                        )
                    incumbent, degraded_source = planned
                else:
                    breaker.record_neutral()
                    return self._error_response(
                        500, "internal", f"{type(error).__name__}: {error}"
                    )
            else:
                breaker.record_success()
                if result.periodic is None:
                    return self._error_response(
                        500,
                        "internal",
                        f"method {method!r} produced no periodic schedule",
                    )
                incumbent = dict(result.periodic.assignment)

        try:
            session = store.create(
                problem,
                method=method,
                seed=seed,
                consistency=consistency,
                incumbent_assignment=incumbent,
            )
        except StoreFullError as error:
            return self._error_response(429, "too-many-sessions", str(error))
        body = schemas.session_response(
            session, degraded_source=degraded_source
        )
        return 200, schemas.encode(body)

    def _degraded_plan(
        self, problem, method, seed
    ) -> Optional[Tuple[Dict[int, int], str]]:
        """A degraded incumbent assignment, or None if no fallback."""
        service = self.service
        if not service.config.degrade:
            return None
        answer = degrade.degraded_answer(
            problem,
            method,
            seed,
            service.cache,
            service.config.degraded_max_sensors,
        )
        if answer is None:
            return None
        planned, meta = answer
        if planned.periodic is None:
            return None
        return dict(planned.periodic.assignment), meta.get(
            "degraded_source", "degraded"
        )

    def _handle_session_delta(self, session_id: str) -> Tuple[int, bytes]:
        document, failure = self._read_json()
        if failure is not None:
            return failure
        try:
            delta = schemas.parse_session_delta(document)
        except schemas.WireError as error:
            return self._error_response(400, error.code, error.message)
        store, failure = self._sessions_or_error()
        if failure is not None:
            return failure
        service = self.service
        breaker = service.breaker
        deadline = time.monotonic() + service.config.request_timeout
        try:
            with store.checkout(session_id) as session:
                # Probe (pure) whether this delta needs the guarded
                # cold path; warm repairs bypass the breaker entirely.
                # The checkout holds the session, so the probe's effect
                # is still current when the apply below reuses it.
                try:
                    effect = apply_delta(
                        session.problem, session.failed, delta
                    )
                except DeltaError as error:
                    return self._error_response(400, error.code, error.message)
                needs_cold = (
                    effect.structural or session.consistency == "exact"
                )
                if needs_cold and not breaker.allow():
                    if not service.config.degrade:
                        return self._error_response(
                            503,
                            "degraded-unavailable",
                            "cold re-solve path unhealthy (circuit breaker "
                            "open) and degraded answers are disabled",
                        )
                    try:
                        outcome = session.apply(
                            delta,
                            deadline=deadline,
                            allow_cold=False,
                            effect=effect,
                        )
                    except ColdResolveUnavailableError as error:
                        return self._error_response(
                            503, error.code, error.message
                        )
                    body = schemas.session_delta_response(session, outcome)
                    return 200, schemas.encode(body)
                try:
                    outcome = session.apply(
                        delta, deadline=deadline, effect=effect
                    )
                except TimeoutError as error:
                    # DeadlineExceededError included: the session rolled
                    # back, so the client retries against unchanged state.
                    if needs_cold:
                        breaker.record_failure()
                    return self._error_response(
                        503,
                        "timeout",
                        f"delta rolled back: {error}",
                    )
                except SessionStateError as error:
                    if needs_cold:
                        breaker.record_neutral()
                    return self._error_response(
                        500, error.code, f"delta rolled back: {error.message}"
                    )
                except SessionClosedError:
                    raise
                except Exception as error:
                    if needs_cold:
                        if is_retryable(error):
                            breaker.record_failure()
                        else:
                            breaker.record_neutral()
                    if is_retryable(error):
                        return self._error_response(
                            503,
                            "transient-failure",
                            f"delta rolled back: "
                            f"{type(error).__name__}: {error}",
                        )
                    return self._error_response(
                        500, "internal", f"{type(error).__name__}: {error}"
                    )
                if needs_cold:
                    breaker.record_success()
                body = schemas.session_delta_response(session, outcome)
                return 200, schemas.encode(body)
        except SessionNotFoundError as error:
            return self._error_response(404, "unknown-session", error.message)
        except SessionGoneError as error:
            return self._error_response(410, "session-gone", error.message)
        except SessionClosedError as error:
            # Evicted while the delta was in flight: state rolled back,
            # resources released on our way out of the checkout.
            return self._error_response(409, error.code, error.message)

    def _handle_session_schedule(self, session_id: str) -> Tuple[int, bytes]:
        store, failure = self._sessions_or_error()
        if failure is not None:
            return failure
        try:
            with store.checkout(session_id) as session:
                body = schemas.session_schedule_response(session)
                return 200, schemas.encode(body)
        except SessionNotFoundError as error:
            return self._error_response(404, "unknown-session", error.message)
        except SessionGoneError as error:
            return self._error_response(410, "session-gone", error.message)
        except SessionClosedError as error:
            return self._error_response(409, error.code, error.message)

    def _handle_session_delete(self, session_id: str) -> Tuple[int, bytes]:
        store, failure = self._sessions_or_error()
        if failure is not None:
            return failure
        try:
            store.delete(session_id)
        except SessionNotFoundError as error:
            return self._error_response(404, "unknown-session", error.message)
        except SessionGoneError as error:
            return self._error_response(410, "session-gone", error.message)
        body = schemas.session_deleted_response(session_id)
        return 200, schemas.encode(body)

    def _handle_metrics(self) -> Tuple[int, bytes]:
        registry = get_registry()
        describe_standard_metrics(registry)
        text = to_prometheus(registry)
        return 200, text.encode("utf-8")

    def _handle_healthz(self) -> Tuple[int, bytes]:
        service = self.service
        status = "draining" if service.draining else "ok"
        body = {
            "kind": "repro-health",
            "version": schemas.WIRE_VERSION,
            "status": status,
            "uptime_seconds": round(service.uptime(), 3),
            "queue_depth": service.batcher.queue_depth(),
            "max_queue": service.batcher.max_queue,
            "breaker": service.breaker.state,
            "sessions": (
                len(service.sessions) if service.sessions is not None else 0
            ),
        }
        return (503 if service.draining else 200), schemas.encode(body)

    # -- plumbing ------------------------------------------------------

    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` only for a body the handler will read.

        A declared length :meth:`_body_length` refuses gets no ``100``:
        the route answers its structured 400 or 413 with
        ``Connection: close`` instead, and the client need not send the
        body at all.
        """
        _, failure = self._body_length()
        if failure is not None:
            return True
        return super().handle_expect_100()

    def _body_length(self) -> Tuple[int, Optional[Tuple[int, bytes]]]:
        """The declared ``Content-Length``, or ``(-1, failure response)``.

        A body is framed by one non-negative ``Content-Length`` within
        ``max_body_bytes``.  A refused framing leaves the body unread,
        so this connection carries no further request.
        """
        if "Transfer-Encoding" in self.headers:
            # A chunked body ends where its last chunk says, and nothing
            # here decodes chunks: refuse it rather than parse it as
            # the next request.
            self.close_connection = True
            return -1, self._error_response(
                411,
                "length-required",
                "request bodies must be sent with a Content-Length, "
                "not a Transfer-Encoding",
            )
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            # ``rfile.read(-1)`` would wait for EOF, and on a keep-alive
            # connection none comes.  Where the body ends is unknown,
            # so the connection cannot carry another request either.
            self.close_connection = True
            return -1, self._error_response(
                400, "bad-request", "unreadable Content-Length"
            )
        limit = self.service.config.max_body_bytes
        if length > limit:
            # Unread, the body's bytes would be parsed as the next
            # request.
            self.close_connection = True
            return -1, self._error_response(
                413,
                "body-too-large",
                f"body of {length} bytes exceeds the {limit} byte limit",
            )
        return length, None

    def _read_body(self) -> Tuple[bytes, Optional[Tuple[int, bytes]]]:
        """The raw body, or ``(b"", ready-made failure response)``."""
        length, failure = self._body_length()
        if failure is not None:
            return b"", failure
        self._body_read = True
        return (self.rfile.read(length) if length else b""), None

    def _read_json(self) -> Tuple[Any, Optional[Tuple[int, bytes]]]:
        """The parsed body, or ``(None, ready-made failure response)``."""
        raw, failure = self._read_body()
        if failure is not None:
            return None, failure
        return self._parse_json(raw)

    def _parse_json(
        self, raw: bytes
    ) -> Tuple[Any, Optional[Tuple[int, bytes]]]:
        try:
            return json.loads(raw.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return None, self._error_response(
                400, "bad-json", f"body is not valid JSON: {error}"
            )

    def _error_response(
        self, status: int, code: str, message: str
    ) -> Tuple[int, bytes]:
        return status, schemas.encode(schemas.error_body(code, message))

    def _timed(self, endpoint: str, handler) -> None:
        start = time.perf_counter()
        try:
            status, payload = handler()
        except Exception as error:  # last-resort guard: never hang a client
            status, payload = self._error_response(
                500, "internal", f"{type(error).__name__}: {error}"
            )
        self._send(endpoint, status, payload)
        registry = get_registry()
        registry.counter(
            "repro_server_requests_total",
            _REQUESTS_HELP,
            endpoint=endpoint,
            status=str(status),
        ).inc()
        registry.histogram(
            "repro_server_request_seconds", _LATENCY_HELP, endpoint=endpoint
        ).observe(time.perf_counter() - start)

    def _error(
        self, endpoint: str, status: int, code: str, message: str
    ) -> None:
        self._send(
            endpoint, status, schemas.encode(schemas.error_body(code, message))
        )
        get_registry().counter(
            "repro_server_requests_total",
            _REQUESTS_HELP,
            endpoint=endpoint,
            status=str(status),
        ).inc()

    def _send(self, endpoint: str, status: int, payload: bytes) -> None:
        if not self._body_read and self._body_length()[0] != 0:
            # The route answered without reading the declared body; its
            # bytes would be parsed as the next request.
            self.close_connection = True
        self._body_read = False  # the next request's body is unread
        content_type = (
            "text/plain; version=0.0.4; charset=utf-8"
            if endpoint == "metrics" and status == 200
            else "application/json; charset=utf-8"
        )
        send_reply(self, status, content_type, payload)

    def log_message(self, format: str, *args: Any) -> None:
        """Route access logs to the structured event stream, not stderr."""
        obs_events.emit(
            "server.access",
            client=self.client_address[0],
            line=format % args,
        )
