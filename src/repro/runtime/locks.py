"""Advisory file locking: a tiny cross-platform shim.

The multi-process schedule cache needs one primitive: "at most one
process mutates this entry at a time".  POSIX gives it as
``fcntl.flock``; Windows as ``msvcrt.locking``; exotic sandboxes
sometimes give neither, in which case the shim degrades to a no-op --
safe here because the cache's write discipline (tmp file + atomic
rename + checksum) already guarantees readers never observe torn data;
the lock only serializes *writers* so they stop wasting work
overwriting each other and racing quarantine moves.

Locks are advisory: they coordinate cooperating cache instances, they
do not protect against hostile processes.  That is the correct
contract for a cache directory -- the reader path stays lock-free and
validates entries by checksum instead.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

try:  # POSIX
    import fcntl

    _BACKEND = "fcntl"
except ImportError:  # pragma: no cover - platform dependent
    fcntl = None  # type: ignore[assignment]
    try:
        import msvcrt

        _BACKEND = "msvcrt"
    except ImportError:
        msvcrt = None  # type: ignore[assignment]
        _BACKEND = "none"


class FileLock:
    """An exclusive advisory lock on ``path`` (created if absent).

    Context-manager use::

        with FileLock(entry_path.with_suffix(".lock")):
            ...mutate the entry...

    ``blocking=False`` makes :meth:`acquire` return ``False`` instead
    of waiting -- the cache uses that to *skip* a disk write another
    process is already performing rather than queue behind it.
    """

    def __init__(self, path: Union[str, Path], blocking: bool = True):
        self.path = Path(path)
        self.blocking = blocking
        self._handle: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._handle is not None

    def acquire(self) -> bool:
        if self._handle is not None:
            return True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if _BACKEND == "fcntl":
                flags = fcntl.LOCK_EX | (0 if self.blocking else fcntl.LOCK_NB)
                try:
                    fcntl.flock(handle, flags)
                except (BlockingIOError, PermissionError):
                    os.close(handle)
                    return False
            elif _BACKEND == "msvcrt":  # pragma: no cover - Windows only
                mode = msvcrt.LK_LOCK if self.blocking else msvcrt.LK_NBLCK
                try:
                    msvcrt.locking(handle, mode, 1)
                except OSError:
                    os.close(handle)
                    return False
            # _BACKEND == "none": degrade to no coordination; the
            # atomic-rename + checksum discipline keeps reads safe.
        except OSError:
            os.close(handle)
            raise
        self._handle = handle
        return True

    def release(self) -> None:
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        try:
            if _BACKEND == "fcntl":
                fcntl.flock(handle, fcntl.LOCK_UN)
            elif _BACKEND == "msvcrt":  # pragma: no cover - Windows only
                msvcrt.locking(handle, msvcrt.LK_UNLCK, 1)
        finally:
            os.close(handle)
        # The lock file itself is left in place: unlinking it would
        # race a waiter that already opened the old inode (its lock
        # would then guard nothing).

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
