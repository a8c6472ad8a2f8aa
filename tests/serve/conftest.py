"""Fixtures for the service tests: in-process servers + a tiny client.

Servers bind an ephemeral port (``port=0``) and run in the test
process, so registry assertions (dedup via the marginal-eval counter)
can observe the handler threads directly.  The client is plain
``urllib`` -- the service must be usable without any client library.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.faults import injector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.serve.app import ServiceConfig, SolveService
from repro.serve.batcher import SolveBatcher


def stall_batches(delay: float, times: int = 1) -> None:
    """Make each of the next ``times`` batches sleep ``delay`` seconds
    before it solves (a ``batcher.batch`` sleep fault).

    The batcher does not linger, so this is how a test keeps requests
    in flight: whatever arrives while a batch sleeps queues up and
    forms the next batch.  ``tests/conftest.py`` uninstalls the plan
    after every test.
    """
    injector.install(
        FaultPlan(
            specs=(
                FaultSpec(
                    site="batcher.batch",
                    action="sleep",
                    delay=delay,
                    times=times,
                ),
            )
        )
    )


def wait_until_solving(batcher: SolveBatcher, timeout: float = 5.0) -> None:
    """Block until the worker has collected a batch and is running it
    (inside a :func:`stall_batches` sleep, if one is installed)."""
    deadline = time.monotonic() + timeout
    while True:
        with batcher._lock:
            if batcher._current_batch:
                return
        assert time.monotonic() < deadline, "no batch started"
        time.sleep(0.005)


class Client:
    """Minimal JSON-over-HTTP client for one running service."""

    def __init__(self, base_url: str):
        self.base_url = base_url

    def post(
        self, path: str, body: Any, timeout: float = 30.0, raw: bytes = None
    ) -> Tuple[int, Dict[str, Any], bytes]:
        """POST ``body`` as JSON; returns (status, parsed body, raw bytes)."""
        data = raw if raw is not None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            headers={"Content-Type": "application/json"},
        )
        return self._issue(request, timeout)

    def get(
        self, path: str, timeout: float = 10.0
    ) -> Tuple[int, Optional[Dict[str, Any]], bytes]:
        return self._issue(
            urllib.request.Request(self.base_url + path), timeout
        )

    def delete(
        self, path: str, timeout: float = 10.0
    ) -> Tuple[int, Optional[Dict[str, Any]], bytes]:
        return self._issue(
            urllib.request.Request(self.base_url + path, method="DELETE"),
            timeout,
        )

    def _issue(self, request, timeout):
        try:
            with urllib.request.urlopen(request, timeout=timeout) as reply:
                payload = reply.read()
                status = reply.status
        except urllib.error.HTTPError as error:
            payload = error.read()
            status = error.code
        try:
            document = json.loads(payload)
        except (json.JSONDecodeError, UnicodeDecodeError):
            document = None
        return status, document, payload


@pytest.fixture
def make_service():
    """Factory for configured in-process services; all stopped on exit."""
    started = []

    def factory(**overrides) -> Tuple[SolveService, Client]:
        overrides.setdefault("port", 0)
        service = SolveService(ServiceConfig(**overrides)).start()
        started.append(service)
        return service, Client(service.url)

    yield factory
    for service in started:
        service.stop()


@pytest.fixture
def service_client(make_service):
    """One default-configured service and its client."""
    service, client = make_service()
    return service, client


def solve_body(
    sensors: int = 8,
    rho: float = 3.0,
    p: float = 0.4,
    periods: int = 1,
    method: str = "greedy",
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    """The canonical test request (mirrors the CLI's default instance)."""
    body: Dict[str, Any] = {
        "problem": {
            "num_sensors": sensors,
            "rho": rho,
            "num_periods": periods,
            "utility": {"p": p},
        },
        "method": method,
    }
    if seed is not None:
        body["seed"] = seed
    return body
