"""Crash recovery of one ``repro serve`` process: SIGKILL, then restart.

The service has no supervisor of its own; a process manager (systemd
``Restart=on-failure``, docker ``--restart``) restarts it.  What makes
that a recovery is ``--session-checkpoint-dir``: every committed delta
is checkpointed, and a restarted server re-adopts the live sessions.
These tests kill a real server process with SIGKILL -- no shutdown
hook runs -- and check that the delta stream continues at the right
``seq`` with the schedule an uninterrupted in-process session gives.
"""

import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve import schemas
from repro.sessions.deltas import delta_from_dict
from repro.sessions.session import Session
from tests.serve.conftest import Client

SRC = str(Path(__file__).resolve().parents[2] / "src")

PROBLEM = {
    "num_sensors": 12,
    "rho": 3,
    "utility": {
        "kind": "detection",
        "probabilities": {
            str(v): round(0.1 + 0.04 * ((5 * v) % 12), 2) for v in range(12)
        },
    },
}
DELTAS = [
    {"kind": "sensor-failed", "sensor": 2},
    {"kind": "sensor-failed", "sensor": 5},
    {"kind": "sensor-recovered", "sensor": 2},
]


class ServerProcess:
    """``python -m repro.cli serve --port 0`` in a child process."""

    def __init__(self, tmp_path: Path, checkpoint_dir=None):
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        if checkpoint_dir is not None:
            command += ["--session-checkpoint-dir", str(checkpoint_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on http://"):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        self.client = Client(line.split(" ", 2)[2].strip())

    def kill(self):
        if self.process.poll() is None:
            os.kill(self.process.pid, signal.SIGKILL)
        self.process.wait(timeout=30.0)
        self.process.stdout.close()


@pytest.fixture
def servers(tmp_path):
    """Factory for server processes; any still alive are killed on exit."""
    started = []

    def start(checkpoint_dir=None):
        server = ServerProcess(tmp_path, checkpoint_dir)
        started.append(server)
        return server

    yield start
    for server in started:
        server.kill()


def post_delta(client, session_id, delta):
    return client.post(f"/v1/session/{session_id}/delta", {"delta": delta})


def uninterrupted_result():
    """The schedule payload after every delta, from one in-process session."""
    session = Session(schemas.problem_from_wire(PROBLEM))
    for delta in DELTAS:
        session.apply(delta_from_dict(delta))
    return json.loads(json.dumps(schemas.session_result_to_wire(session)))


def start_session_with_two_deltas(client):
    status, body, _ = client.post("/v1/session", {"problem": PROBLEM})
    assert status == 200, body
    session_id = body["session"]["id"]
    for seq, delta in enumerate(DELTAS[:2], start=1):
        status, body, _ = post_delta(client, session_id, delta)
        assert status == 200, body
        assert body["session"]["seq"] == seq
    return session_id


class TestRestartAfterSigkill:
    def test_checkpointed_session_resumes_at_next_seq(self, servers, tmp_path):
        checkpoints = tmp_path / "ckpt"
        first = servers(checkpoints)
        session_id = start_session_with_two_deltas(first.client)
        first.kill()

        second = servers(checkpoints)
        status, body, _ = post_delta(second.client, session_id, DELTAS[2])
        assert status == 200, body
        assert body["session"]["seq"] == 3
        assert body["session"]["failed"] == [5]
        assert body["degraded"] is False
        assert body["result"] == uninterrupted_result()

    def test_without_checkpoints_the_old_id_is_unknown(self, servers, tmp_path):
        first = servers(tmp_path / "ckpt")
        session_id = start_session_with_two_deltas(first.client)
        first.kill()

        second = servers()
        status, body, _ = post_delta(second.client, session_id, DELTAS[2])
        assert status == 404, body
        assert body["error"]["code"] == "unknown-session"
