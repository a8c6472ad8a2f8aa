"""The service object: configuration, lifecycle, and the HTTP server.

:class:`SolveService` owns the shared pieces -- one schedule cache, one
:class:`~repro.serve.batcher.SolveBatcher`, one
``ThreadingHTTPServer`` -- and exposes ``start``/``stop`` so it can run
three ways:

- ``repro serve`` (the CLI) starts it in the foreground;
- tests embed it on an ephemeral port (``port=0``) and drive it with
  plain ``urllib`` clients;
- ``with SolveService(config) as service:`` scopes it to a block.

``stop`` drains rather than kills: the listener stops accepting, the
health endpoint flips to ``draining`` (503), queued requests finish,
then the batcher joins.  In-flight clients get answers, new clients get
told to go elsewhere -- the shutdown story a load balancer expects.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from typing import Optional, Tuple

from repro.obs.catalog import describe_standard_metrics
from repro.runtime.cache import ScheduleCache, default_cache_dir
from repro.runtime.retry import RetryPolicy
from repro.serve.batcher import SolveBatcher
from repro.serve.breaker import CircuitBreaker
from repro.serve.handlers import ServiceRequestHandler
from repro.serve.schemas import DEFAULT_MAX_SENSORS, DEFAULT_MAX_SLOTS
from repro.sessions.store import SessionStore


@dataclass(frozen=True)
class ServiceConfig:
    """Everything tunable about one service instance."""

    host: str = "127.0.0.1"
    port: int = 8080  # 0 = ephemeral (tests)
    jobs: Optional[int] = None  # worker processes per batch
    use_cache: bool = True
    cache_dir: Optional[str] = None  # None = $REPRO_CACHE_DIR / default
    max_batch: int = 64
    max_queue: int = 256  # in-flight bound; beyond it -> 429
    request_timeout: float = 60.0  # per-request wall bound -> 503
    max_body_bytes: int = 1_000_000
    max_sensors: int = DEFAULT_MAX_SENSORS
    max_slots: int = DEFAULT_MAX_SLOTS
    # -- resilience ----------------------------------------------------
    retry_attempts: int = 3  # per-batch solve attempts (1 = no retry)
    breaker_threshold: int = 5  # consecutive failures that trip it
    breaker_recovery: float = 5.0  # seconds open before probing
    degrade: bool = True  # serve degraded answers when the breaker opens
    degraded_max_sensors: int = 64  # greedy-fallback instance bound
    # -- sessions ------------------------------------------------------
    sessions: bool = True  # mount /v1/session
    max_sessions: int = 64  # live-session bound; beyond it -> 429
    session_ttl: float = 600.0  # idle seconds before eviction
    session_checkpoint_dir: Optional[str] = None  # None = no persistence


class ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that hands its handlers the service object."""

    daemon_threads = True  # a wedged client must not block shutdown

    def __init__(self, address: Tuple[str, int], service: "SolveService"):
        self.service = service
        super().__init__(address, ServiceRequestHandler)


class SolveService:
    """One running (or startable) solve/simulate service."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.cache: Optional[ScheduleCache] = None
        if self.config.use_cache:
            directory = self.config.cache_dir or default_cache_dir()
            self.cache = ScheduleCache(directory=directory)
        retry = (
            RetryPolicy(max_attempts=self.config.retry_attempts)
            if self.config.retry_attempts > 1
            else None
        )
        self.batcher = SolveBatcher(
            cache=self.cache,
            jobs=self.config.jobs,
            max_queue=self.config.max_queue,
            max_batch=self.config.max_batch,
            retry=retry,
        )
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            recovery_time=self.config.breaker_recovery,
        )
        self.sessions: Optional[SessionStore] = None
        if self.config.sessions:
            self.sessions = SessionStore(
                capacity=self.config.max_sessions,
                ttl=self.config.session_ttl,
                checkpoint_dir=self.config.session_checkpoint_dir,
                cache=self.cache,
            )
        self.draining = False
        self._httpd: Optional[ServiceHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._sweeper: Optional[threading.Thread] = None
        self._sweeper_stop = threading.Event()
        self._started_at = time.monotonic()
        # Pre-register the catalog so the first /metrics scrape already
        # lists every family with HELP/TYPE metadata.
        describe_standard_metrics()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "SolveService":
        """Bind and serve in a background thread; returns self."""
        if self._httpd is not None:
            raise RuntimeError("service already started")
        self._httpd = ServiceHTTPServer(
            (self.config.host, self.config.port), self
        )
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        self._start_sweeper()
        return self

    def serve_forever(self) -> None:
        """Foreground variant for the CLI: blocks until interrupted."""
        if self._httpd is not None:
            raise RuntimeError("service already started")
        self._httpd = ServiceHTTPServer(
            (self.config.host, self.config.port), self
        )
        self._started_at = time.monotonic()
        self._start_sweeper()
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        finally:
            self.stop()

    def stop(self) -> None:
        """Drain and shut down; idempotent."""
        self.draining = True
        httpd = self._httpd
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._sweeper_stop.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout=5.0)
            self._sweeper = None
        if self.sessions is not None:
            self.sessions.close()
        self.batcher.close()

    def _start_sweeper(self) -> None:
        """TTL sweeps on a timer (idle sessions die without traffic)."""
        if self.sessions is None or self._sweeper is not None:
            return
        interval = max(0.5, min(self.config.session_ttl / 4.0, 30.0))
        store = self.sessions
        stop = self._sweeper_stop
        stop.clear()

        def run() -> None:
            while not stop.wait(interval):
                store.sweep()

        self._sweeper = threading.Thread(
            target=run, name="repro-session-sweeper", daemon=True
        )
        self._sweeper.start()

    def __enter__(self) -> "SolveService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- introspection -------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) -- resolves ephemeral port 0."""
        if self._httpd is None:
            raise RuntimeError("service not started")
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def uptime(self) -> float:
        return time.monotonic() - self._started_at
