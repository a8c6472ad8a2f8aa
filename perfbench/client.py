"""The load side: the server process, persistent connections, drivers.

The load comes from this one process with at most ``nproc`` threads
(two here), each owning one persistent HTTP/1.1 connection.  The server
under test runs in its own process: ``python -m repro.cli serve --port
0`` with its default configuration, or, for a traced pass, the same
command behind :mod:`perfbench.tracedserve`.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

monotonic = time.monotonic

#: Load threads = connections.  The host has 2 cores; the server gets
#: its own process, so more client threads would only fight it.
CONNECTIONS = 2

READY_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


def child_env(root: Path, cache_dir: Path) -> Dict[str, str]:
    """The server's environment: default switches, a private cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, root: Path, workdir: Path, spans_out: Optional[Path] = None):
        self.root = root
        self.workdir = workdir
        self.spans_out = spans_out
        self.process: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> "Server":
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.spans_out is None:
            command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        else:
            command = [
                sys.executable,
                "-m",
                "perfbench.tracedserve",
                "--spans-out",
                str(self.spans_out),
            ]
        self._stderr = open(self.workdir / "server.stderr", "wb")
        self.process = subprocess.Popen(
            command,
            cwd=self.root,
            env=child_env(self.root, self.workdir / "cache"),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        line = self._readline(READY_TIMEOUT)
        if not line.startswith(b"serving on http://"):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split(b"http://", 1)[1].strip().decode()
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        return self

    def _readline(self, timeout: float) -> bytes:
        assert self.process is not None and self.process.stdout is not None
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        return self.process.stdout.readline() if ready else b""

    def stop(self) -> None:
        """SIGTERM (the CLI drains on it), then wait; kill if stuck."""
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
        self._stderr.close()

    def connect(self) -> "Connection":
        return Connection(self.host, self.port)

    def scrape(self) -> str:
        """The server's ``/metrics`` exposition."""
        connection = self.connect()
        try:
            status, body = connection.request("GET", "/metrics")
        finally:
            connection.close()
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return body.decode("utf-8")


class Connection:
    """One persistent HTTP/1.1 connection (``http.client`` keeps it open)."""

    def __init__(self, host: str, port: int) -> None:
        self._http = http.client.HTTPConnection(host, port, timeout=60)

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self._http.request(method, path, body=body, headers=headers)
        response = self._http.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._http.close()


@dataclass
class Reply:
    """One completed request, with the times the metrics need."""

    index: int
    due: float  # when the schedule wanted it sent
    free: float  # when a connection became free to send it
    sent: float
    done: float
    status: int
    document: Optional[Dict[str, Any]]

    @property
    def latency(self) -> float:
        """From the due time: a stall also delays the requests behind it."""
        return self.done - self.due

    @property
    def service(self) -> float:
        return self.done - self.sent

    @property
    def late(self) -> float:
        """How late the generator itself woke (not waiting for a connection)."""
        return self.sent - max(self.due, self.free)


def _decode(body: bytes) -> Optional[Dict[str, Any]]:
    try:
        document = json.loads(body)
    except ValueError:
        return None
    return document if isinstance(document, dict) else None


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    errors: List[BaseException] = []

    def guard(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as error:  # re-raised on the main thread
            errors.append(error)

    threads = [threading.Thread(target=guard, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def open_loop(
    connections: Sequence[Connection],
    path: str,
    schedule: Sequence[Tuple[float, bytes]],
    start: float,
    end: float,
) -> List[Reply]:
    """Send ``(offset, body)`` requests at ``start + offset`` until ``end``.

    Requests are taken in schedule order by whichever connection is
    free; one that comes due while both are busy waits for the first
    free connection, and that wait counts in its latency.  Requests due
    at or after ``end`` are not sent; those in flight at ``end`` finish.
    """
    replies: List[Reply] = []
    lock = threading.Lock()
    cursor = [0]

    def worker(connection: Connection) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(schedule) or start + schedule[index][0] >= end:
                    return
                cursor[0] += 1
            due = start + schedule[index][0]
            free = monotonic()
            if due > free:
                time.sleep(due - free)
            sent = monotonic()
            status, body = connection.request("POST", path, schedule[index][1])
            done = monotonic()
            replies.append(Reply(index, due, free, sent, done, status, _decode(body)))

    _run_threads([lambda c=c: worker(c) for c in connections])
    replies.sort(key=lambda r: r.index)
    return replies


@dataclass
class ClosedLoop:
    """One connection's closed loop: next request only after the reply."""

    connection: Connection
    path: str
    next_body: Callable[[], bytes]
    replies: List[Reply] = field(default_factory=list)
    bodies: List[bytes] = field(default_factory=list)

    def run(self, end: float) -> None:
        while monotonic() < end:
            body = self.next_body()
            self.bodies.append(body)
            sent = monotonic()
            status, payload = self.connection.request("POST", self.path, body)
            done = monotonic()
            self.replies.append(
                Reply(len(self.replies), sent, sent, sent, done, status, _decode(payload))
            )


def closed_loops(loops: Sequence[ClosedLoop], end: float) -> None:
    _run_threads([lambda l=l: l.run(end) for l in loops])


def post_all(connections: Sequence[Connection], path: str, bodies: Sequence[bytes]) -> List[Reply]:
    """Send every body as fast as the connections allow (warm-up)."""
    now = monotonic()
    return open_loop(connections, path, [(0.0, b) for b in bodies], now, float("inf"))
