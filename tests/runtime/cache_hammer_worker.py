"""Subprocess helper for the multi-process cache hammer test.

Drives a mixed put/get load over a small shared keyspace against one
cache directory, with a tiny in-memory capacity so most hits come off
the shared disk tier (where other processes' writes are visible).
Every payload read back is verified against the deterministic content
its key implies; a mismatch would mean torn bytes leaked through the
checksum layer.  A read of a key this worker has not yet ``put`` can
only have been served by another process's write; those are counted
as ``foreign_reads``.

Run as: ``python cache_hammer_worker.py <dir> <iters> <seed>``.
Prints a JSON summary on stdout; exits 0 always (failures are the
parent's call to make).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from repro.runtime.cache import ScheduleCache

KEYSPACE = 16

SUMMARY_FIELDS = (
    "hits",
    "misses",
    "stores",
    "evictions",
    "disk_hits",
    "quarantined",
)


def key_for(slot: int) -> str:
    return hashlib.sha256(f"hammer-{slot}".encode()).hexdigest()


def payload_for(key: str) -> dict:
    return {"key": key, "blob": key * 24}


def main() -> int:
    directory, iterations, seed = sys.argv[1:4]
    cache = ScheduleCache(directory=directory, capacity=4)
    rng = random.Random(int(seed))
    corrupt = 0
    foreign_reads = 0
    written = set()
    for _ in range(int(iterations)):
        key = key_for(rng.randrange(KEYSPACE))
        if rng.random() < 0.5:
            cache.put(key, payload_for(key))
            written.add(key)
        else:
            payload = cache.get(key)
            if payload is not None and payload != payload_for(key):
                corrupt += 1
            if payload is not None and key not in written:
                foreign_reads += 1
    print(
        json.dumps(
            {
                "corrupt": corrupt,
                "foreign_reads": foreign_reads,
                "stats": {
                    field: getattr(cache.stats, field)
                    for field in SUMMARY_FIELDS
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
