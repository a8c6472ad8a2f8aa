"""Tests for the LRU + atomic-disk schedule cache."""

import json

import pytest

from repro.core.problem import SchedulingProblem
from repro.core.solver import solve
from repro.energy.period import ChargingPeriod
from repro.runtime.cache import (
    CACHE_DIR_ENV,
    ScheduleCache,
    default_cache_dir,
    payload_checksum,
    payload_to_result,
    result_to_payload,
)
from repro.runtime.fingerprint import solve_fingerprint
from repro.utility.detection import HomogeneousDetectionUtility

PERIOD = ChargingPeriod.paper_sunny()


def make_problem(n=10):
    return SchedulingProblem(
        num_sensors=n,
        period=PERIOD,
        utility=HomogeneousDetectionUtility(range(n), p=0.4),
    )


def solved(n=10, method="greedy"):
    problem = make_problem(n)
    return problem, solve_fingerprint(problem, method), solve(
        problem, method=method
    )


class TestPayloadRoundTrip:
    def test_schedules_and_metrics_survive(self):
        problem, _key, result = solved()
        restored = payload_to_result(problem, result_to_payload(result))
        assert restored.schedule == result.schedule
        assert restored.periodic == result.periodic
        assert restored.total_utility == result.total_utility
        assert restored.average_slot_utility == result.average_slot_utility
        assert restored.method == result.method

    def test_payload_is_json_serializable(self):
        _problem, _key, result = solved()
        json.dumps(result_to_payload(result))


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ScheduleCache()
        problem, key, result = solved()
        assert cache.get_result(key, problem) is None
        cache.put_result(key, result)
        hit = cache.get_result(key, problem)
        assert hit is not None
        assert hit.schedule == result.schedule
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_lru_eviction_evicts_least_recently_used(self):
        cache = ScheduleCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refresh "a"; "b" is now LRU
        cache.put("c", {"v": 3})
        assert cache.stats.evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ScheduleCache(capacity=0)


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        problem, key, result = solved()
        ScheduleCache(directory=tmp_path).put_result(key, result)
        fresh = ScheduleCache(directory=tmp_path)
        hit = fresh.get_result(key, problem)
        assert hit is not None
        assert hit.schedule == result.schedule
        assert fresh.stats.disk_hits == 1

    def test_no_tmp_litter_after_write(self, tmp_path):
        _problem, key, result = solved()
        ScheduleCache(directory=tmp_path).put_result(key, result)
        assert not list(tmp_path.rglob("*.tmp"))

    def test_entry_survives_memory_eviction(self, tmp_path):
        cache = ScheduleCache(capacity=1, directory=tmp_path)
        problem_a, key_a, result_a = solved(8)
        problem_b, key_b, result_b = solved(9)
        cache.put_result(key_a, result_a)
        cache.put_result(key_b, result_b)  # evicts A from memory
        assert cache.stats.evictions == 1
        hit = cache.get_result(key_a, problem_a)
        assert hit is not None
        assert hit.schedule == result_a.schedule
        assert cache.stats.disk_hits == 1

    def test_corrupt_file_reads_as_miss_and_is_removed(self, tmp_path):
        problem, key, result = solved()
        cache = ScheduleCache(directory=tmp_path)
        cache.put_result(key, result)
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{ torn write")
        fresh = ScheduleCache(directory=tmp_path)
        assert fresh.get_result(key, problem) is None
        assert not path.exists()

    def test_foreign_kind_reads_as_miss(self, tmp_path):
        problem, key, _result = solved()
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"kind": "something-else", "key": key}))
        assert ScheduleCache(directory=tmp_path).get_result(key, problem) is None

    def test_key_mismatch_reads_as_miss(self, tmp_path):
        # An entry renamed to the wrong key must not be served under it.
        problem, key, result = solved()
        cache = ScheduleCache(directory=tmp_path)
        cache.put_result(key, result)
        src = tmp_path / key[:2] / f"{key}.json"
        other = "f" * 64
        dst = tmp_path / other[:2] / f"{other}.json"
        dst.parent.mkdir(parents=True, exist_ok=True)
        src.rename(dst)
        assert ScheduleCache(directory=tmp_path).get(other) is None

    def test_clear_empties_memory_and_disk(self, tmp_path):
        cache = ScheduleCache(directory=tmp_path)
        _problem, key, result = solved()
        cache.put_result(key, result)
        removed = cache.clear()
        assert removed >= 1
        assert len(cache) == 0
        assert cache.disk_entries() == 0

    def test_disk_accounting(self, tmp_path):
        cache = ScheduleCache(directory=tmp_path)
        assert cache.disk_entries() == 0
        assert cache.disk_bytes() == 0
        _problem, key, result = solved()
        cache.put_result(key, result)
        assert cache.disk_entries() == 1
        assert cache.disk_bytes() > 0

    def test_store_with_writer_fields_and_stats_dir_reads_and_clears(self, tmp_path):
        # Older stores stamped a "writer" field (outside the checksum)
        # on every entry, left a <key>.lock beside it and kept
        # per-process counter files in stats/.
        problem, key, result = solved()
        payload = result_to_payload(result)
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps(
                {
                    "kind": "repro-schedule-cache",
                    "version": 2,
                    "key": key,
                    "writer": "pid1-abc",
                    "checksum": payload_checksum(payload),
                    "payload": payload,
                }
            )
        )
        path.with_suffix(".lock").touch()
        stats_dir = tmp_path / "stats"
        stats_dir.mkdir()
        (stats_dir / "pid1-abc.stats").write_text("{}\n")

        cache = ScheduleCache(directory=tmp_path)
        assert cache.disk_entries() == 1
        hit = cache.get_result(key, problem)
        assert hit is not None
        assert hit.schedule == result.schedule
        assert cache.stats.disk_hits == 1

        assert cache.clear() == 2  # the memory copy and the disk entry
        assert not stats_dir.exists()
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_shared_store_holds_only_entries_and_locks(self, tmp_path):
        first = ScheduleCache(capacity=1, directory=tmp_path)
        second = ScheduleCache(capacity=1, directory=tmp_path)
        problem_a, key_a, result_a = solved(8)
        problem_b, key_b, result_b = solved(9)
        first.put_result(key_a, result_a)
        second.put_result(key_b, result_b)
        assert second.get_result(key_a, problem_a) is not None
        assert first.peek_result(key_b, problem_b) is not None
        assert second.get("0" * 64) is None
        assert first.peek("0" * 64) is None

        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert {p.suffix for p in files} == {".json"}
        assert {p.stem for p in files} == {key_a, key_b}
        for path in files:
            assert path.parent == tmp_path / path.stem[:2]


class TestDefaultDirectory:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir().name == "schedules"
