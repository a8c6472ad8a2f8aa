"""Schedule cache: in-memory LRU over an optional on-disk store.

Identical :class:`~repro.core.problem.SchedulingProblem` instances are
re-solved from scratch all over the repo -- across sweep pivot rows,
across benchmark repetitions, across CLI invocations, across the
process pool's workers.  This module memoizes solves keyed by the
content fingerprint of their inputs (:mod:`repro.runtime.fingerprint`):

- a bounded in-memory LRU serves the hot set without touching the
  store;
- the on-disk tier, :class:`~repro.runtime.backend.DirectoryBackend`,
  persists entries across processes with the write-tmp/fsync/rename
  discipline of :mod:`repro.io.checkpoint`, SHA-256 payload checksums
  verified on read, quarantine for corrupt files, and a private tmp
  file per writer -- crash-safe and multi-process-safe, pinned
  by the kill -9 torture test in ``tests/runtime/test_cache_torture.py``;
- counters are mirrored onto the process metrics registry, so
  ``repro metrics`` reports them alongside every other family.

Entries store the *serialized* solve result (via
:mod:`repro.io.serialization`), not pickles: the on-disk format stays
inspectable, diffable and safe to load from an untrusted directory.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.problem import SchedulingProblem
from repro.core.schedule import PeriodicSchedule, UnrolledSchedule
from repro.core.solver import SolveResult
from repro.io.serialization import schedule_from_dict, schedule_to_dict
from repro.obs.registry import get_registry
from repro.runtime.backend import (
    ENTRY_KIND,
    ENTRY_VERSION,
    QUARANTINE_DIR,
    DirectoryBackend,
    payload_checksum,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CacheStats",
    "ENTRY_KIND",
    "ENTRY_VERSION",
    "QUARANTINE_DIR",
    "ScheduleCache",
    "default_cache_dir",
    "payload_checksum",
    "payload_to_result",
    "result_to_payload",
]

PathLike = Union[str, Path]

#: Environment variable overriding the default on-disk store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The persistent store location: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro/schedules``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "schedules"


#: CacheStats attribute -> (metric name, help, labels) on the shared
#: registry.  Every *increase* of a stat is mirrored; the rare
#: corrective decrement (a corrupt entry re-classified from hit to
#: miss) is not, because registry counters are monotonic -- so the
#: registry's lookup total can exceed ``CacheStats.lookups`` by the
#: number of corrupt entries encountered.
_STAT_MIRROR = {
    "hits": (
        "repro_cache_lookups_total",
        "Schedule cache lookups by result (hit/miss)",
        {"result": "hit"},
    ),
    "misses": (
        "repro_cache_lookups_total",
        "Schedule cache lookups by result (hit/miss)",
        {"result": "miss"},
    ),
    "stores": (
        "repro_cache_stores_total",
        "Schedule cache entries written",
        {},
    ),
    "evictions": (
        "repro_cache_evictions_total",
        "In-memory LRU evictions",
        {},
    ),
    "disk_hits": (
        "repro_cache_disk_hits_total",
        "Cache hits served from the directory store",
        {},
    ),
    "quarantined": (
        "repro_cache_quarantined_total",
        "Corrupt cache entries moved into quarantine",
        {},
    ),
}


@dataclass
class CacheStats:
    """Counters for one cache instance's lifetime.

    The per-instance integers remain the public API; every increment is
    also mirrored onto the process-wide
    :class:`~repro.obs.registry.MetricsRegistry`, so ``repro metrics``
    aggregates across every cache instance the process touched.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0  # subset of ``hits`` served from the backend
    quarantined: int = 0  # corrupt entries moved aside on read

    def __setattr__(self, name: str, value: Any) -> None:
        mirror = _STAT_MIRROR.get(name)
        if mirror is not None:
            delta = value - getattr(self, name, 0)
            if delta > 0:
                metric_name, help_text, labels = mirror
                get_registry().counter(
                    metric_name, help_text, **labels
                ).inc(delta)
        object.__setattr__(self, name, value)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "quarantined": self.quarantined,
            "hit_rate": self.hit_rate,
        }

    def __str__(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate, {self.disk_hits} from disk, "
            f"{self.evictions} evictions)"
        )


# ----------------------------------------------------------------------
# SolveResult <-> JSON payload
# ----------------------------------------------------------------------


def result_to_payload(result: SolveResult) -> Dict[str, Any]:
    """The cacheable portion of a solve result (problem excluded --
    the key already pins it, and the caller supplies it on rehydration)."""
    return {
        "method": result.method,
        "schedule": schedule_to_dict(result.schedule),
        "periodic": (
            schedule_to_dict(result.periodic)
            if result.periodic is not None
            else None
        ),
        "total_utility": result.total_utility,
        "average_slot_utility": result.average_slot_utility,
        "solve_seconds": result.solve_seconds,
        "extras": dict(result.extras),
    }


def payload_to_result(
    problem: SchedulingProblem, payload: Dict[str, Any]
) -> SolveResult:
    """Rehydrate a cached payload against the problem it was keyed by."""
    schedule = schedule_from_dict(payload["schedule"])
    if not isinstance(schedule, UnrolledSchedule):
        raise ValueError("cached entry holds no unrolled schedule")
    periodic = (
        schedule_from_dict(payload["periodic"])
        if payload.get("periodic") is not None
        else None
    )
    if periodic is not None and not isinstance(periodic, PeriodicSchedule):
        raise ValueError("cached periodic entry has the wrong kind")
    return SolveResult(
        method=payload["method"],
        problem=problem,
        schedule=schedule,
        periodic=periodic,
        total_utility=float(payload["total_utility"]),
        average_slot_utility=float(payload["average_slot_utility"]),
        solve_seconds=float(payload["solve_seconds"]),
        extras={k: float(v) for k, v in payload.get("extras", {}).items()},
    )


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------

class ScheduleCache:
    """Bounded LRU of solve payloads over an optional directory store.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries; the least-recently-used entry is
        evicted past this (it stays in the store if one is set).
    directory:
        Persistent store location (builds a
        :class:`~repro.runtime.backend.DirectoryBackend`); ``None``
        keeps the cache purely in-memory.
    """

    def __init__(
        self,
        capacity: int = 256,
        directory: Optional[PathLike] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self.backend: Optional[DirectoryBackend] = None
        if directory is not None:
            self.backend = DirectoryBackend(
                directory, on_quarantine=self._count_quarantine
            )
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    @property
    def directory(self) -> Optional[Path]:
        """The directory-store root, when there is a store."""
        return self.backend.directory if self.backend is not None else None

    # -- lookup --------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload for ``key``, or ``None`` (counted as a miss)."""
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return payload
        payload = self._load_backend(key)
        if payload is not None:
            self._insert_memory(key, payload)
            return payload
        self.stats.misses += 1
        return None

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get` but absence does *not* count as a miss.

        The serving layer's fast path probes the cache at admission
        time to answer warm requests without occupying a batch slot; a
        probe that comes up empty is followed by the batch's real
        lookup, and counting both would double every miss.  A found
        entry still counts as a (disk) hit -- it genuinely served a
        request.
        """
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return payload
        payload = self._load_backend(key)
        if payload is not None:
            self._insert_memory(key, payload)
            return payload
        return None

    def peek_result(
        self, key: str, problem: SchedulingProblem
    ) -> Optional[SolveResult]:
        """:meth:`peek`, rehydrated; corrupt entries read as absent."""
        payload = self.peek(key)
        if payload is None:
            return None
        try:
            return payload_to_result(problem, payload)
        except (KeyError, ValueError, TypeError):
            self.stats.hits -= 1
            self._memory.pop(key, None)
            if self.backend is not None:
                self.backend.remove(key)
            return None

    def get_result(
        self, key: str, problem: SchedulingProblem
    ) -> Optional[SolveResult]:
        """Like :meth:`get` but rehydrated into a :class:`SolveResult`."""
        payload = self.get(key)
        if payload is None:
            return None
        try:
            return payload_to_result(problem, payload)
        except (KeyError, ValueError, TypeError):
            # A corrupt entry must read as a miss, not a crash; drop it
            # so the re-solve's store replaces it with a good one.
            self.stats.hits -= 1
            self.stats.misses += 1
            self._memory.pop(key, None)
            if self.backend is not None:
                self.backend.remove(key)
            return None

    # -- store ---------------------------------------------------------

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Insert/refresh an entry (memory always, backend if set)."""
        self._insert_memory(key, payload)
        self.stats.stores += 1
        if self.backend is not None:
            self.backend.store(key, payload)

    def put_result(self, key: str, result: SolveResult) -> None:
        self.put(key, result_to_payload(result))

    # -- maintenance ---------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (memory and backend); returns entries removed.

        Lock files and quarantined entries are swept too, but only live
        entries count toward the return value.
        """
        removed = len(self._memory)
        self._memory.clear()
        if self.backend is not None:
            removed += self.backend.clear()
        return removed

    def __len__(self) -> int:
        return len(self._memory)

    def disk_entries(self) -> int:
        """Entries currently in the backend store."""
        return self.backend.entries() if self.backend is not None else 0

    def disk_bytes(self) -> int:
        """Total bytes held by the directory store."""
        return self.backend.size_bytes() if self.backend is not None else 0

    def quarantined_entries(self) -> int:
        """Corrupt entries currently sitting in the quarantine area."""
        return self.backend.quarantined() if self.backend is not None else 0

    def _count_quarantine(self) -> None:
        self.stats.quarantined += 1

    # -- internals -----------------------------------------------------

    def _load_backend(self, key: str) -> Optional[Dict[str, Any]]:
        if self.backend is None:
            return None
        payload = self.backend.load(key)
        if payload is None:
            return None
        self.stats.hits += 1
        self.stats.disk_hits += 1
        return payload

    def _insert_memory(self, key: str, payload: Dict[str, Any]) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
