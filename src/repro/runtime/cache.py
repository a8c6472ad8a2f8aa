"""Schedule cache: in-memory LRU over an optional on-disk store.

Identical :class:`~repro.core.problem.SchedulingProblem` instances are
re-solved from scratch all over the repo -- across sweep pivot rows,
across benchmark repetitions, across CLI invocations, across the
process pool's workers.  This module memoizes solves keyed by the
content fingerprint of their inputs (:mod:`repro.runtime.fingerprint`):

- a bounded in-memory LRU serves the hot set without touching the
  store;
- the shared tier, :class:`~repro.runtime.backend.DirectoryBackend`,
  persists entries across processes with the write-tmp/fsync/rename
  discipline of :mod:`repro.io.checkpoint`, SHA-256 payload checksums
  verified on read, quarantine for corrupt files, and advisory
  per-entry write locks -- crash-safe and multi-process-safe, pinned
  by the kill -9 torture test in ``tests/runtime/test_cache_torture.py``;
- every stored entry records its **writer label**, so a hit on an
  entry some *other* process wrote is counted separately
  (``stats.cross_hits``) -- the signal that a shared tier is actually
  being shared across processes;
- counters are mirrored onto the process metrics registry *and*
  periodically flushed to an atomic **stats sidecar** file inside the
  store (``stats/<label>.json``), so ``repro cache stats`` can
  aggregate hit/miss/store/eviction counts across every process that
  ever touched the directory -- not just the one asking
  (:func:`aggregate_sidecar_stats`).

Entries store the *serialized* solve result (via
:mod:`repro.io.serialization`), not pickles: the on-disk format stays
inspectable, diffable and safe to load from an untrusted directory.
"""

from __future__ import annotations

import atexit
import json
import os
import weakref
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
    STATS_DIR,
    DirectoryBackend,
    default_writer_label,
    payload_checksum,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CacheStats",
    "ENTRY_KIND",
    "ENTRY_VERSION",
    "QUARANTINE_DIR",
    "STATS_DIR",
    "ScheduleCache",
    "aggregate_sidecar_stats",
    "default_cache_dir",
    "payload_checksum",
    "payload_to_result",
    "result_to_payload",
]

PathLike = Union[str, Path]

#: Environment variable overriding the default on-disk store location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Lookups between automatic sidecar flushes (stores always flush: they
#: already paid for disk I/O, one more tiny file is noise).
SIDECAR_FLUSH_EVERY = 64

SIDECAR_KIND = "repro-cache-stats"
SIDECAR_VERSION = 1


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
    "cross_hits": (
        "repro_cache_cross_hits_total",
        "Backend hits on entries written by another process",
        {},
    ),
    "quarantined": (
        "repro_cache_quarantined_total",
        "Corrupt cache entries moved into quarantine",
        {},
    ),
}

#: The fields a stats sidecar carries (and aggregation sums).
_SIDECAR_FIELDS = (
    "hits",
    "misses",
    "stores",
    "evictions",
    "disk_hits",
    "cross_hits",
    "quarantined",
)


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
    cross_hits: int = 0  # subset of ``disk_hits`` written by another process
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
            "cross_hits": self.cross_hits,
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

#: Live caches with sidecars, flushed once more at interpreter exit so
#: short CLI invocations never lose their final partial window.
_SIDECAR_CACHES: "weakref.WeakSet[ScheduleCache]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _flush_all_sidecars() -> None:
    for cache in list(_SIDECAR_CACHES):
        cache.flush_stats_sidecar()


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
    writer_label:
        Identity stamped on stored entries and on the stats sidecar;
        defaults to a pid-unique token, so ``repro cache stats`` can
        tell the processes sharing a store apart.
    """

    def __init__(
        self,
        capacity: int = 256,
        directory: Optional[PathLike] = None,
        writer_label: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self.writer_label = (
            writer_label if writer_label is not None else default_writer_label()
        )
        self.backend: Optional[DirectoryBackend] = None
        if directory is not None:
            self.backend = DirectoryBackend(
                directory, label=self.writer_label, on_quarantine=self._count_quarantine
            )
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._sidecar_marker = 0
        if self._stats_dir() is not None:
            global _ATEXIT_REGISTERED
            _SIDECAR_CACHES.add(self)
            if not _ATEXIT_REGISTERED:
                atexit.register(_flush_all_sidecars)
                _ATEXIT_REGISTERED = True

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
            self._maybe_flush_sidecar()
            return payload
        payload = self._load_backend(key)
        if payload is not None:
            self._insert_memory(key, payload)
            self._maybe_flush_sidecar()
            return payload
        self.stats.misses += 1
        self._maybe_flush_sidecar()
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
            self._maybe_flush_sidecar()
            return payload
        payload = self._load_backend(key)
        if payload is not None:
            self._insert_memory(key, payload)
            self._maybe_flush_sidecar()
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
        self.flush_stats_sidecar()

    def put_result(self, key: str, result: SolveResult) -> None:
        self.put(key, result_to_payload(result))

    # -- maintenance ---------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (memory and backend); returns entries removed.

        Lock files, quarantined entries and stats sidecars are swept
        too, but only live entries count toward the return value.
        """
        removed = len(self._memory)
        self._memory.clear()
        if self.backend is not None:
            removed += self.backend.clear()
        stats_dir = self._stats_dir()
        if stats_dir is not None and stats_dir.exists():
            for path in stats_dir.glob("*"):
                path.unlink(missing_ok=True)
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

    # -- cross-process stats sidecar -----------------------------------

    def flush_stats_sidecar(self) -> bool:
        """Write this instance's counters to ``stats/<label>.json``
        atomically (tmp + rename); ``False`` when there is nowhere to
        write or the write failed.  Safe to call at any time; the file
        always holds lifetime totals, so re-flushing is idempotent."""
        stats_dir = self._stats_dir()
        if stats_dir is None:
            return False
        document = {
            "kind": SIDECAR_KIND,
            "version": SIDECAR_VERSION,
            "label": self.writer_label,
            "pid": os.getpid(),
            "stats": {
                field: getattr(self.stats, field)
                for field in _SIDECAR_FIELDS
            },
        }
        # ``.stats`` (not ``.json``) keeps sidecars invisible to every
        # glob that enumerates cache *entries*.
        path = stats_dir / f"{self.writer_label}.stats"
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            stats_dir.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(document, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except OSError:
            # Monitoring must never fail the work it monitors.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        self._sidecar_marker = self.stats.lookups
        return True

    def _stats_dir(self) -> Optional[Path]:
        directory = self.directory
        if directory is None:
            return None
        return directory / STATS_DIR

    def _maybe_flush_sidecar(self) -> None:
        if self._stats_dir() is None:
            return
        if self.stats.lookups - self._sidecar_marker >= SIDECAR_FLUSH_EVERY:
            self.flush_stats_sidecar()

    def _count_quarantine(self) -> None:
        self.stats.quarantined += 1

    # -- internals -----------------------------------------------------

    def _load_backend(self, key: str) -> Optional[Dict[str, Any]]:
        if self.backend is None:
            return None
        loaded = self.backend.load(key)
        if loaded is None:
            return None
        payload, writer = loaded
        self.stats.hits += 1
        self.stats.disk_hits += 1
        if writer is not None and writer != self.writer_label:
            self.stats.cross_hits += 1
        return payload

    def _insert_memory(self, key: str, payload: Dict[str, Any]) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1


# ----------------------------------------------------------------------
# Cross-process aggregation
# ----------------------------------------------------------------------


def aggregate_sidecar_stats(directory: PathLike) -> Optional[Dict[str, Any]]:
    """Sum every stats sidecar under ``directory``; ``None`` when the
    store has no sidecars (nothing cross-process to report).

    Each sidecar holds one writer's lifetime totals, and writer labels
    are process-unique, so a plain sum over files is exact -- no
    double counting, no deltas to reconcile.  Unparseable sidecars
    (a writer killed mid-rename cannot exist thanks to the atomic
    write, but foreign files can) are skipped, not fatal.
    """
    stats_dir = Path(directory) / STATS_DIR
    if not stats_dir.is_dir():
        return None
    totals = {field: 0 for field in _SIDECAR_FIELDS}
    writers = 0
    for path in sorted(stats_dir.glob("*.stats")):
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if (
            not isinstance(document, dict)
            or document.get("kind") != SIDECAR_KIND
            or not isinstance(document.get("stats"), dict)
        ):
            continue
        writers += 1
        for field in _SIDECAR_FIELDS:
            value = document["stats"].get(field, 0)
            if isinstance(value, int) and value >= 0:
                totals[field] += value
    if writers == 0:
        return None
    totals["writers"] = writers
    totals["lookups"] = totals["hits"] + totals["misses"]
    return totals
