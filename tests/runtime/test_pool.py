"""Tests for the worker pool: ordering, fallback, telemetry."""

import os
import time

import pytest

from repro.obs.registry import get_registry
from repro.runtime.pool import (
    TaskTelemetry,
    run_tasks,
    summarize_telemetry,
)


def square(x):
    return x * x


def sleepy_square(x):
    time.sleep(0.3)
    return x * x


def explode(x):
    raise RuntimeError(f"task {x} exploded")


class TestSerialPath:
    def test_results_in_order(self):
        results, telemetry = run_tasks(square, [3, 1, 2])
        assert results == [9, 1, 4]
        assert [t.index for t in telemetry] == [0, 1, 2]
        assert all(not t.parallel for t in telemetry)
        assert all(t.worker == os.getpid() for t in telemetry)

    def test_jobs_one_is_serial(self):
        _results, telemetry = run_tasks(square, [1, 2], jobs=1)
        assert all(not t.parallel for t in telemetry)

    def test_single_item_stays_serial_even_with_jobs(self):
        # Spinning a pool for one task is pure overhead.
        _results, telemetry = run_tasks(square, [5], jobs=4)
        assert all(not t.parallel for t in telemetry)

    def test_empty_items(self):
        results, telemetry = run_tasks(square, [], jobs=4)
        assert results == []
        assert telemetry == []

    def test_task_error_propagates(self):
        with pytest.raises(RuntimeError, match="exploded"):
            run_tasks(explode, [1, 2])


class TestParallelPath:
    def test_results_match_serial_and_run_in_workers(self, pool_engaged):
        items = list(range(8))
        serial, _ = run_tasks(square, items, jobs=1)
        parallel, telemetry = run_tasks(square, items, jobs=2)
        assert parallel == serial
        # Task 0 is the serial probe; the rest ran in workers.
        assert not telemetry[0].parallel
        assert all(t.parallel for t in telemetry[1:])
        assert all(t.worker != os.getpid() for t in telemetry[1:])

    def test_task_error_still_propagates(self):
        with pytest.raises(RuntimeError, match="exploded"):
            run_tasks(explode, [1, 2, 3], jobs=2)

    def test_unpicklable_fn_degrades_to_serial(self):
        results, telemetry = run_tasks(lambda x: x + 1, [1, 2, 3], jobs=2)
        assert results == [2, 3, 4]
        assert all(not t.parallel for t in telemetry)


class TestAutoFallback:
    def test_single_core_machine_stays_serial(self, monkeypatch):
        get_registry().reset()
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # e.g. macOS
        results, telemetry = run_tasks(square, [1, 2, 3], jobs=4)
        assert results == [1, 4, 9]
        assert all(not t.parallel for t in telemetry)
        assert (
            get_registry().sample_value(
                "repro_pool_fallbacks_total", reason="single-core"
            )
            == 1
        )

    def test_single_cpu_affinity_stays_serial(self, monkeypatch):
        get_registry().reset()
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # `taskset -c 0` on 2 cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        run_tasks(square, [1, 2, 3], jobs=2)
        assert get_registry().sample_value(
            "repro_pool_fallbacks_total", reason="single-core"
        ) == 1

    def test_cheap_tasks_stay_serial(self, monkeypatch):
        get_registry().reset()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # square costs microseconds: the serial probe shows the batch
        # cannot amortize worker spawns, so no pool is created.
        results, telemetry = run_tasks(square, [1, 2, 3, 4], jobs=2)
        assert results == [1, 4, 9, 16]
        assert all(not t.parallel for t in telemetry)
        assert (
            get_registry().sample_value(
                "repro_pool_fallbacks_total", reason="cheap-tasks"
            )
            == 1
        )

    def test_expensive_tasks_still_pool(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        results, telemetry = run_tasks(sleepy_square, [2, 3], jobs=2)
        assert results == [4, 9]
        # Task 0 is the serial probe; the rest went to the pool.
        assert not telemetry[0].parallel
        assert telemetry[1].parallel


class TestTelemetrySummary:
    def test_rollup(self):
        telemetry = [
            TaskTelemetry(0, 0.5, 111, True, cache="miss"),
            TaskTelemetry(1, 0.1, 222, True, cache="hit"),
            TaskTelemetry(2, 0.2, 333, False, cache="hit"),
        ]
        summary = summarize_telemetry(telemetry)
        assert summary["tasks"] == 3
        assert summary["parallel_tasks"] == 2
        assert summary["serial_tasks"] == 1
        assert summary["workers"] == [111, 222, 333]
        assert summary["task_seconds"] == pytest.approx(0.8)
        assert summary["cache"] == {"miss": 1, "hit": 2}

    def test_as_dict(self):
        record = TaskTelemetry(4, 1.25, 99, True, cache="miss")
        assert record.as_dict() == {
            "index": 4,
            "wall_seconds": 1.25,
            "worker": 99,
            "parallel": True,
            "cache": "miss",
            "batched": False,
        }

    def test_as_dict_batched(self):
        record = TaskTelemetry(0, 0.5, 7, False, cache="miss", batched=True)
        assert record.as_dict()["batched"] is True
