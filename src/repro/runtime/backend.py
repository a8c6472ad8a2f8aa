"""The on-disk tier of the schedule cache.

:class:`~repro.runtime.cache.ScheduleCache` layers a process-local LRU
over :class:`DirectoryBackend`: the crash-safe, checksum-verified
directory store (torn writes quarantined, every writer renaming its
own tmp file into place, reads lock-free).

Entries are version-2 documents: kind, version, key, the payload and
its checksum.  Fields outside those (such as the ``writer`` label older
stores stamped on each entry) are ignored on read.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.faults.injector import maybe_hit
from repro.obs import events as obs_events
from repro.runtime.fingerprint import canonical_json

PathLike = Union[str, Path]

ENTRY_KIND = "repro-schedule-cache"
#: Version 2 added the payload checksum; v1 entries (no checksum) read
#: as stale-format files and are discarded, not quarantined.
ENTRY_VERSION = 2

#: Subdirectory corrupt entries are moved into (forensics + no races).
QUARANTINE_DIR = "quarantine"


def payload_checksum(payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a payload (order-insensitive)."""
    import hashlib

    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class DirectoryBackend:
    """The on-disk store: atomic writes, checksums, quarantine.

    :meth:`load` is safe against concurrent :meth:`store` calls from
    other processes -- a reader sees the old entry or the new one,
    never torn bytes -- and every failure reads as a miss or a skipped
    write, never an exception that takes the caller's solve down.

    Parameters
    ----------
    directory:
        Store root.  Entries are sharded by the first two key hex
        chars to keep directories small at scale.
    on_quarantine:
        Callback fired once per entry moved into quarantine (the
        owning cache counts it on its stats).
    """

    def __init__(
        self,
        directory: PathLike,
        on_quarantine: Optional[Callable[[], None]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.on_quarantine = on_quarantine

    # -- entries -------------------------------------------------------

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Read ``key``; corrupt entries are quarantined and read as
        absent, transient I/O failures read as absent too."""
        path = self._entry_path(key)
        try:
            maybe_hit("cache.read", key=key)
            raw = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            # Transient read failure (real or injected): a miss.  The
            # entry is left in place -- the *file* is not the problem.
            return None
        try:
            document = json.loads(raw)
        except json.JSONDecodeError:
            # Torn bytes: some non-atomic writer died mid-write, or the
            # storage lied.  Quarantine, never serve, never delete.
            self._quarantine(path)
            return None
        if (
            not isinstance(document, dict)
            or document.get("kind") != ENTRY_KIND
            or document.get("version") != ENTRY_VERSION
            or document.get("key") != key
        ):
            # Well-formed JSON of the wrong shape: a stale format
            # version or a foreign file.  Not evidence of corruption;
            # just discard so it stops masking the slot.
            path.unlink(missing_ok=True)
            return None
        payload = document.get("payload")
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        if document.get("checksum") != payload_checksum(payload):
            self._quarantine(path)
            return None
        return payload

    def store(self, key: str, payload: Dict[str, Any]) -> bool:
        """Write ``key`` with the checkpoint discipline (tmp + fsync +
        rename); ``False`` when the write failed (full/read-only store)
        -- never an exception.

        Concurrent writers of one key each rename their own complete
        tmp file into place; the last rename wins, and any winner is
        an equivalent entry.
        """
        path = self._entry_path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fired = maybe_hit("cache.write", key=key)
            document = {
                "kind": ENTRY_KIND,
                "version": ENTRY_VERSION,
                "key": key,
                "checksum": payload_checksum(payload),
                "payload": payload,
            }
            data = json.dumps(document, indent=2) + "\n"
            if fired is not None and fired.action == "torn-write":
                # Chaos: behave like a crashed non-atomic writer --
                # half the bytes, straight onto the final path.  The
                # checksum/quarantine read path must absorb this.
                with path.open("w") as handle:
                    handle.write(data[: max(1, len(data) // 2)])
                return True
            # Same crash-safety discipline as io.checkpoint: readers
            # observe either no entry or a complete one, never a torn
            # write.  mkstemp gives every writer (process or thread) a
            # tmp file of its own, so concurrent writers of one key
            # cannot clobber each other's half-written bytes.
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            except OSError:
                Path(tmp).unlink(missing_ok=True)
                raise
        except OSError:
            # A read-only or full store (or an injected write fault)
            # must not fail the solve that produced the result; the
            # caller's memory tier still has it.
            return False
        return True

    def remove(self, key: str) -> None:
        """Unlink ``key``'s entry (used to evict corrupt payloads)."""
        self._entry_path(key).unlink(missing_ok=True)

    def clear(self) -> int:
        """Drop every entry and quarantined file; returns live entries
        removed.

        The ``<key>.lock`` files and the ``stats/`` directory that older
        stores left behind are removed too.
        """
        removed = 0
        if not self.directory.exists():
            return removed
        for path in sorted(self.directory.glob("*/*.json")):
            if path.parent.name == QUARANTINE_DIR:
                continue
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.directory.glob("*/*.lock"):
            path.unlink(missing_ok=True)
        for path in (self.directory / QUARANTINE_DIR).glob("*"):
            path.unlink(missing_ok=True)
        legacy_stats = self.directory / "stats"
        if legacy_stats.is_dir():
            shutil.rmtree(legacy_stats, ignore_errors=True)
        return removed

    def entries(self) -> int:
        """Live entries currently in the store."""
        if not self.directory.exists():
            return 0
        return sum(
            1
            for path in self.directory.glob("*/*.json")
            if path.parent.name != QUARANTINE_DIR
        )

    # -- extras (directory-tier specific) ------------------------------

    def size_bytes(self) -> int:
        """Total bytes held by live entries."""
        if not self.directory.exists():
            return 0
        return sum(
            p.stat().st_size
            for p in self.directory.glob("*/*.json")
            if p.parent.name != QUARANTINE_DIR
        )

    def quarantined(self) -> int:
        """Corrupt entries currently sitting in the quarantine area."""
        return sum(1 for _ in (self.directory / QUARANTINE_DIR).glob("*"))

    # -- internals -----------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry into the quarantine area (atomic).

        Moving instead of unlinking keeps the bytes for post-mortems
        and -- more importantly -- makes the corrupt-entry race benign:
        if a concurrent writer re-installs a good entry between our
        read and this move, quarantine relocates one fresh entry (a
        re-solve refills it) instead of silently destroying it.
        """
        target_dir = self.directory / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / f"{path.name}.{os.getpid()}")
        except FileNotFoundError:
            return  # a concurrent reader already moved it
        except OSError:
            # Cannot quarantine (read-only store?): fall back to unlink
            # so the bad entry at least stops masking the slot.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                return
            return
        if self.on_quarantine is not None:
            self.on_quarantine()
        obs_events.emit("cache.quarantined", entry=path.name)
