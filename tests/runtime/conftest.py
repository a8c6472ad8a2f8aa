"""Fixtures for the runtime tests."""

from __future__ import annotations

import os

import pytest

from repro.runtime import pool


@pytest.fixture
def pool_engaged(monkeypatch):
    """Make :func:`repro.runtime.pool.run_tasks` use its worker pool.

    The pool declines work it cannot win: on one usable CPU, or when a
    serial probe of task 0 says the batch is cheaper than the worker
    spawns.  With two CPUs and a free spawn, every task after the probe
    runs in a worker -- so task 0 is always serial, and the tests assert
    on tasks 1 and later.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(pool, "SPAWN_COST_SECONDS", 0.0)
